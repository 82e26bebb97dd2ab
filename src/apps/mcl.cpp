#include "apps/mcl.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <type_traits>

#include "ckpt/checkpoint.hpp"
#include "ckpt/redistribute.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "grid/dist.hpp"
#include "kernels/spgemm.hpp"
#include "obs/recorder.hpp"
#include "sparse/serialize.hpp"
#include "summa/batched.hpp"
#include "vmpi/traffic.hpp"

namespace casp {

void mcl_normalize_columns(CscMat& m) {
  auto vals = m.vals_mutable();
  for (Index j = 0; j < m.ncols(); ++j) {
    const auto lo = static_cast<std::size_t>(m.colptr()[static_cast<std::size_t>(j)]);
    const auto hi = static_cast<std::size_t>(m.colptr()[static_cast<std::size_t>(j) + 1]);
    Value sum = 0;
    for (std::size_t k = lo; k < hi; ++k) sum += vals[k];
    if (sum > 0)
      for (std::size_t k = lo; k < hi; ++k) vals[k] /= sum;
  }
}

void mcl_inflate(CscMat& m, double exponent) {
  for (Value& v : m.vals_mutable()) v = std::pow(v, exponent);
  mcl_normalize_columns(m);
}

void mcl_prune(CscMat& m, double threshold, Index keep_per_col) {
  // Threshold pass first.
  m.prune([threshold](Index, Index, Value v) { return v >= threshold; });
  if (keep_per_col <= 0) return;
  // Top-k pass: for over-full columns keep the k largest values.
  bool any_overfull = false;
  for (Index j = 0; j < m.ncols(); ++j) {
    if (m.col_nnz(j) > keep_per_col) {
      any_overfull = true;
      break;
    }
  }
  if (!any_overfull) return;
  std::vector<Value> cutoffs(static_cast<std::size_t>(m.ncols()), -1.0);
  std::vector<Value> scratch;
  for (Index j = 0; j < m.ncols(); ++j) {
    if (m.col_nnz(j) <= keep_per_col) continue;
    const auto vals = m.col_vals(j);
    scratch.assign(vals.begin(), vals.end());
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(keep_per_col - 1),
                     scratch.end(), std::greater<Value>());
    cutoffs[static_cast<std::size_t>(j)] =
        scratch[static_cast<std::size_t>(keep_per_col - 1)];
  }
  // Keep entries >= cutoff, breaking ties by keeping the first arrivals
  // until the column is full.
  std::vector<Index> kept(static_cast<std::size_t>(m.ncols()), 0);
  m.prune([&](Index, Index col, Value v) {
    const auto c = static_cast<std::size_t>(col);
    if (cutoffs[c] < 0) return true;
    if (v < cutoffs[c]) return false;
    if (kept[c] >= keep_per_col && v <= cutoffs[c]) return false;
    ++kept[c];
    return true;
  });
}

double mcl_chaos(const CscMat& m) {
  double chaos = 0.0;
  for (Index j = 0; j < m.ncols(); ++j) {
    const auto vals = m.col_vals(j);
    if (vals.empty()) continue;
    Value mx = 0, sumsq = 0;
    for (Value v : vals) {
      mx = std::max(mx, v);
      sumsq += v * v;
    }
    chaos = std::max(chaos, static_cast<double>(mx - sumsq));
  }
  return chaos;
}

namespace {
/// Union-find for the cluster interpretation.
class UnionFind {
 public:
  explicit UnionFind(Index n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), Index{0});
  }
  Index find(Index x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(Index a, Index b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }

 private:
  std::vector<Index> parent_;
};
}  // namespace

MclResult mcl_interpret(const CscMat& m) {
  CASP_CHECK_MSG(m.nrows() == m.ncols(), "mcl: iterate must be square");
  const Index n = m.ncols();
  // Each vertex joins its column's attractor (argmax row); vertices whose
  // columns died join singleton clusters.
  UnionFind uf(n);
  for (Index j = 0; j < n; ++j) {
    const auto rows = m.col_rowids(j);
    const auto vals = m.col_vals(j);
    if (rows.empty()) continue;
    std::size_t best = 0;
    for (std::size_t k = 1; k < vals.size(); ++k)
      if (vals[k] > vals[best]) best = k;
    uf.unite(j, rows[best]);
  }
  MclResult result;
  result.cluster_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<Index> id_of_root(static_cast<std::size_t>(n), -1);
  Index next = 0;
  for (Index v = 0; v < n; ++v) {
    const Index root = uf.find(v);
    if (id_of_root[static_cast<std::size_t>(root)] < 0)
      id_of_root[static_cast<std::size_t>(root)] = next++;
    result.cluster_of[static_cast<std::size_t>(v)] =
        id_of_root[static_cast<std::size_t>(root)];
  }
  result.num_clusters = next;
  return result;
}

namespace {
/// One inflation + pruning pass applied to a column block (works the same
/// on a local batch piece and on a full matrix — pruning is column-local).
void inflate_and_prune(CscMat& m, const MclParams& params) {
  mcl_inflate(m, params.inflation);
  mcl_prune(m, params.prune_threshold, params.keep_per_col);
  mcl_normalize_columns(m);
}

constexpr const char* kMclScope = "mcl";
static_assert(std::is_trivially_copyable_v<MclIterationStats>);

/// Iteration-boundary MCL checkpoint: the re-replicated iterate after
/// `next_iter`-1 iterations, the per-iteration stats so far, and whether
/// the chaos test already converged. Everything else (prune thresholds,
/// inflation) is part of the job identity, not the state.
ckpt::Snapshot make_mcl_snapshot(int next_iter, bool converged,
                                 const CscMat& m, const MclResult& result) {
  ckpt::Snapshot snap;
  snap.set_u64("next_iter", static_cast<std::uint64_t>(next_iter));
  snap.set_u64("converged", converged ? 1 : 0);
  snap.borrow_matrix("m", m);
  snap.set_array("stats", result.per_iteration);
  return snap;
}

/// Resume consensus across ranks. A crash is not a barrier, so ranks may
/// hold different newest generations; unlike the SUMMA batch snapshots, an
/// MCL snapshot is not prefix-truncatable (only the latest iterate is
/// kept), so the agreed point must be an iteration *every* rank has. Each
/// rank publishes the next_iter of its (at most two) valid generations plus
/// the always-available cold start 0; the verdict is the largest value
/// present in every rank's window — deterministic from the gathered array,
/// so every rank computes the same answer. Runs in phase "Ckpt-Resume".
std::int64_t mcl_resume_consensus(
    vmpi::Comm& world, const std::vector<ckpt::LoadedSnapshot>& loaded) {
  constexpr std::size_t kWindow = 3;
  std::vector<std::int64_t> mine(kWindow, -1);
  for (std::size_t i = 0; i < loaded.size() && i < kWindow - 1; ++i)
    mine[i] = static_cast<std::int64_t>(loaded[i].snap.u64("next_iter"));
  mine[kWindow - 1] = 0;
  vmpi::ScopedPhase resume_phase(world.traffic(), steps::kCkptResume);
  const std::vector<std::int64_t> all = world.allgather_vec<std::int64_t>(mine);
  CASP_CHECK(all.size() == kWindow * static_cast<std::size_t>(world.size()));
  std::int64_t best = 0;
  for (const std::int64_t cand : mine) {
    if (cand <= best) continue;
    bool everywhere = true;
    for (int r = 0; r < world.size() && everywhere; ++r) {
      bool found = false;
      for (std::size_t s = 0; s < kWindow; ++s)
        found = found ||
                all[static_cast<std::size_t>(r) * kWindow + s] == cand;
      everywhere = found;
    }
    if (everywhere) best = cand;
  }
  return best;
}
}  // namespace

MclResult mcl_cluster_serial(const CscMat& similarity, const MclParams& params) {
  CASP_CHECK(similarity.nrows() == similarity.ncols());
  CscMat m = similarity;
  mcl_normalize_columns(m);
  MclResult result;
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    // Expansion: M <- M * M.
    m = local_spgemm<PlusTimes>(m, m, SpGemmKind::kSortedHash);
    inflate_and_prune(m, params);
    MclIterationStats stats;
    stats.batches = 1;
    stats.chaos = mcl_chaos(m);
    stats.nnz_after = m.nnz();
    result.per_iteration.push_back(stats);
    ++result.iterations;
    if (stats.chaos < params.chaos_threshold) break;
  }
  const MclResult interpreted = mcl_interpret(m);
  result.cluster_of = interpreted.cluster_of;
  result.num_clusters = interpreted.num_clusters;
  return result;
}

MclResult mcl_cluster_distributed(Grid3D& grid, const CscMat& similarity,
                                  const MclParams& params, Bytes total_memory,
                                  const SummaOptions& opts) {
  CASP_CHECK(similarity.nrows() == similarity.ncols());
  CscMat m = similarity;
  mcl_normalize_columns(m);
  obs::Recorder& rec = grid.world().recorder();
  MclResult result;

  // Iteration-boundary checkpointing (opts.ckpt): resume from the newest
  // iteration every rank holds, replaying nothing — the snapshot carries
  // the full re-replicated iterate, and all later state is deterministic.
  ckpt::Checkpointer* ck = opts.ckpt;
  const bool ckpt_on = ck != nullptr && ck->enabled();
  std::string ckpt_job;
  int start_iter = 0;
  bool restored_converged = false;
  if (ckpt_on) {
    std::ostringstream id;
    id << "mcl|n=" << similarity.ncols() << "|nnz0=" << similarity.nnz()
       << "|inflation=" << params.inflation
       << "|prune=" << params.prune_threshold
       << "|keep=" << params.keep_per_col
       << "|maxiter=" << params.max_iterations
       << "|chaos=" << params.chaos_threshold
       << "|tag=" << opts.ckpt_job_tag;
    ckpt_job = id.str();
    const auto loaded = ck->load_all(kMclScope, ckpt_job);
    const std::int64_t agreed = mcl_resume_consensus(grid.world(), loaded);
    if (agreed > 0) {
      const ckpt::LoadedSnapshot* chosen = nullptr;
      for (const ckpt::LoadedSnapshot& cand : loaded) {
        if (static_cast<std::int64_t>(cand.snap.u64("next_iter")) == agreed) {
          chosen = &cand;
          break;
        }
      }
      CASP_CHECK_MSG(chosen != nullptr,
                     "mcl resume consensus chose an iteration this rank "
                     "does not hold");
      m = chosen->snap.matrix("m");
      result.per_iteration =
          chosen->snap.array<MclIterationStats>("stats");
      result.iterations = static_cast<int>(agreed);
      start_iter = static_cast<int>(agreed);
      restored_converged = chosen->snap.u64("converged") != 0;
      rec.set_counter("mcl.iterations", result.iterations);
      ck->note_resume(chosen->generation);
    }
  }

  // Batch-checkpoint job ids of the iterations since the last save.
  std::vector<std::string> unsaved_summa_jobs;
  for (int iter = start_iter;
       iter < params.max_iterations && !restored_converged; ++iter) {
    obs::ScopedTag iter_tag(rec, obs::ScopedTag::Kind::kIteration, iter);
    obs::Span iter_span(rec, "MCL-Iteration");
    // Nested SUMMA-level checkpoints are scoped to this iteration via the
    // job tag, so a crash mid-expansion resumes at the batch boundary and
    // a snapshot from a different iteration can never leak in.
    SummaOptions iter_opts = opts;
    if (ckpt_on)
      iter_opts.ckpt_job_tag =
          opts.ckpt_job_tag + "|mcl-iter-" + std::to_string(iter);
    const DistMat3D da = distribute_a_style(grid, m);
    const DistMat3D db = distribute_b_style(grid, m);
    if (ckpt_on)
      unsaved_summa_jobs.push_back(summa_ckpt_job_id(
          da.global_rows, da.global_cols, db.global_cols, da.global_nnz,
          db.global_nnz, iter_opts.ckpt_job_tag));
    // Expansion with batch-wise pruning: each finished batch piece is
    // inflated/pruned immediately, so the unpruned square never exists.
    //
    // Inflation and pruning are column-global, but a batch piece holds only
    // this rank's *row slice* of each column (C's rows are A-style
    // distributed, and the ranks of a process column get the same column
    // cut, so a global column spans those q ranks). HipMCL
    // performs the column-wise reductions along process columns; here the
    // batch piece is exchanged within col_comm so every member sees the
    // full columns of the batch, prunes them, and keeps its own row slice.
    // Memory stays bounded by the batch, never the whole square.
    std::vector<CscMat> pruned_pieces;
    LocalRange pruned_cols;  // the pieces tile my slice of C in order
    Index batches = 1;
    const Index nrows = m.nrows();
    const Index q = grid.q();
    batched_summa3d<PlusTimes>(
        grid, da, db, total_memory, iter_opts,
        [&](CscMat&& piece, const BatchInfo& info) {
          batches = info.num_batches;
          if (pruned_pieces.empty()) pruned_cols.start = info.global_cols.start;
          CASP_CHECK(info.global_cols.start ==
                     pruned_cols.start + pruned_cols.count);
          pruned_cols.count += info.global_cols.count;
          // Assemble full columns across the process column. The gathered
          // payloads are read in place (unpack_csc_view): every member of
          // the process column shares one broadcast concatenation buffer.
          vmpi::Comm& col_comm = grid.col_comm();
          const auto buffers =
              col_comm.allgather_payload(pack_csc_payload(piece));
          std::vector<CscView> parts;
          std::vector<std::pair<Index, Index>> origins;
          for (int src = 0; src < col_comm.size(); ++src) {
            parts.push_back(
                unpack_csc_view(buffers[static_cast<std::size_t>(src)]));
            origins.emplace_back(part_low(src, q, nrows), 0);
          }
          CscMat full = assemble_blocks(nrows, piece.ncols(), parts, origins);
          inflate_and_prune(full, params);
          // Keep my row slice of the pruned batch.
          CscMat my_slice = extract_block(
              full, info.global_rows.start,
              info.global_rows.start + info.global_rows.count, 0, full.ncols());
          pruned_pieces.push_back(std::move(my_slice));
        },
        /*keep_output=*/false);
    DistMat3D pruned;
    pruned.global_rows = m.nrows();
    pruned.global_cols = m.ncols();
    pruned.rows = a_style_row_range(grid, m.nrows());
    pruned.cols = pruned_cols;
    pruned.local = CscMat::concat_cols(pruned_pieces);
    // Re-replicate for the next iteration (and to evaluate global chaos).
    m = gather_dist(grid, pruned);
    // Batch pieces were normalized per piece; the global iterate is
    // column-stochastic already since pruning/normalization is column-local
    // and every global column lives in exactly one piece.
    MclIterationStats stats;
    stats.batches = batches;
    stats.chaos = mcl_chaos(m);
    stats.nnz_after = m.nnz();
    result.per_iteration.push_back(stats);
    ++result.iterations;
    rec.set_counter("mcl.iterations", result.iterations);
    rec.set_counter("mcl.nnz_after", static_cast<std::int64_t>(stats.nnz_after));
    rec.sample("mcl.nnz_after", static_cast<std::int64_t>(stats.nnz_after));
    const bool converged = stats.chaos < params.chaos_threshold;
    if (ckpt_on &&
        (ck->due(static_cast<std::uint64_t>(iter) + 1) || converged)) {
      ck->save(kMclScope, ckpt_job,
               make_mcl_snapshot(iter + 1, converged, m, result));
      // The saved iterate supersedes the batch checkpoints of the
      // iterations it covers; each is its own job, so drop them here.
      for (const std::string& job : unsaved_summa_jobs)
        ck->discard(ckpt::kSummaCkptScope, job);
      unsaved_summa_jobs.clear();
    }
    if (converged) break;
  }
  const MclResult interpreted = mcl_interpret(m);
  result.cluster_of = interpreted.cluster_of;
  result.num_clusters = interpreted.num_clusters;
  rec.set_counter("mcl.num_clusters", interpreted.num_clusters);
  return result;
}

}  // namespace casp
