#include "summa/batched.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/redistribute.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/recorder.hpp"
#include "summa/summa3d.hpp"
#include "vmpi/traffic.hpp"

namespace casp {

// The on-disk layout lives with its reader: ckpt::SummaPieceMeta in
// ckpt/redistribute.hpp carries a piece's global coordinates.
using PieceMeta = ckpt::SummaPieceMeta;
static_assert(std::is_trivially_copyable_v<PieceMeta>);

namespace {

/// Fiber-Balance (DESIGN.md §5o): the unmerged nnz of each column of my B
/// part, summed over every rank that shares the part. The fiber sum comes
/// first because it is my fiber's Merge-Fiber input per column, which the
/// counters read; the col_comm sum then gives all ranks (., j, .) the same
/// weights, so they cut at the same boundaries.
std::vector<Index> fiber_weights(Grid3D& grid, std::vector<Index> col_nnz) {
  obs::Recorder& rec = grid.world().recorder();
  obs::PhaseSpan span(rec, steps::kFiberBalance);
  const std::vector<Index> fiber = grid.fiber_comm().allreduce<Index>(
      std::move(col_nnz), std::plus<Index>());
  std::vector<Index> w = fiber;
  if (grid.q() > 1)
    w = grid.col_comm().allreduce<Index>(std::move(w), std::plus<Index>());

  // The heaviest layer's Merge-Fiber input in my fiber, over all batches:
  // by nesting, a layer's blocks tile its part of the l-way cut.
  const Index l = grid.layers();
  const auto n = static_cast<Index>(w.size());
  const std::vector<Index> cut = equal_flops_cut(w, l);
  const auto nnz_in = [&](Index lo, Index hi) {
    return std::accumulate(fiber.begin() + lo, fiber.begin() + hi, Index{0});
  };
  Index max_in = 0, max_cut = 0;
  for (Index k = 0; k < l; ++k) {
    max_in = std::max(max_in,
                      nnz_in(part_low(k, l, n), part_low(k + 1, l, n)));
    max_cut = std::max(max_cut, nnz_in(cut[static_cast<std::size_t>(k)],
                                       cut[static_cast<std::size_t>(k) + 1]));
  }
  rec.set_counter("summa.fiber_nnz_max_in", max_in);
  rec.set_counter("summa.fiber_nnz_max", max_cut);
  return w;
}

}  // namespace

std::string summa_ckpt_job_id(Index rows, Index inner, Index cols,
                              Index global_nnz_a, Index global_nnz_b,
                              const std::string& tag,
                              std::optional<Index> mask_nnz) {
  std::ostringstream id;
  id << "batched_summa3d|" << rows << 'x' << inner << 'x' << cols
     << "|gnnzA=" << global_nnz_a << "|gnnzB=" << global_nnz_b
     << "|tag=" << tag;
  if (mask_nnz.has_value()) id << "|masked|gnnzM=" << *mask_nnz;
  return id.str();
}

template <typename SR>
BatchedResult batched_summa3d(Grid3D& grid, const DistMat3D& a_in,
                              const DistMat3D& b_in, Bytes total_memory,
                              const SummaOptions& opts,
                              const BatchCallback& on_batch,
                              bool keep_output) {
  CASP_CHECK_MSG(a_in.global_cols == b_in.global_rows,
                 "batched_summa3d: inner dimension mismatch");

  // Equal-flops layer slices first, so Symbolic3D, Eq. (2) and every batch
  // see them; C's layout, and everything below keyed on it, is unchanged.
  std::pair<DistMat3D, DistMat3D> balanced;
  if (grid.layers() > 1) balanced = rebalance_inner(grid, a_in, b_in);
  const DistMat3D& a = grid.layers() > 1 ? balanced.first : a_in;
  const DistMat3D& b = grid.layers() > 1 ? balanced.second : b_in;

  MemoryCharge input_charge;
  if (opts.memory != nullptr)
    input_charge = MemoryCharge(
        *opts.memory,
        static_cast<Bytes>(a.local.nnz() + b.local.nnz()) * kBytesPerNonzero,
        "input matrices");

  BatchedResult result;
  obs::Recorder& rec = grid.world().recorder();
  const Index psize = b.cols.count;  // my B column part width

  // C = (A*B) .* pattern(mask): my block of the mask covers my A block's
  // rows and my B part's columns; each batch selects its columns of it the
  // way it selects B's.
  CscMat mask_part;
  if (opts.mask != nullptr) {
    CASP_CHECK_MSG(opts.mask->nrows() == a.global_rows &&
                       opts.mask->ncols() == b.global_cols,
                   "batched_summa3d: mask is " << opts.mask->nrows() << 'x'
                                               << opts.mask->ncols()
                                               << ", C is " << a.global_rows
                                               << 'x' << b.global_cols);
    CASP_CHECK_MSG(opts.mask->columns_sorted(),
                   "batched_summa3d: mask columns must be sorted");
    mask_part = product_block(grid, *opts.mask);
    CASP_CHECK(mask_part.nrows() == a.local.nrows() &&
               mask_part.ncols() == psize);
  }

  // Line 2, Alg. 4: the symbolic step decides b (unless the experiment
  // pins it to sweep the (l, b) space). A result the caller already holds
  // for this grid stands in for the pass; only Eq. (2) runs again.
  if (opts.force_batches > 0) {
    result.batches = opts.force_batches;
  } else if (opts.symbolic != nullptr) {
    result.symbolic = *opts.symbolic;
    CASP_CHECK_MSG(
        static_cast<Index>(result.symbolic.col_nnz.size()) == psize,
        "batched_summa3d: carried Symbolic3D result is for another layout");
    result.symbolic.batches =
        symbolic_batches(result.symbolic, total_memory, grid.world().size());
    result.batches = result.symbolic.batches;
    rec.set_counter("summa.symbolic_carried", 1);
  } else {
    result.symbolic = symbolic3d(grid, a.local, b.local, total_memory, opts);
    result.batches = result.symbolic.batches;
  }
  result.batches = std::max<Index>(
      1, std::min(result.batches, std::max<Index>(1, b.global_cols)));

  const Index num_batches = result.batches;
  const Index l = grid.layers();
  rec.set_counter("batches", num_batches);

  // Fiber split (DESIGN.md §5o): the l*b column blocks of my B part take
  // equal shares of these weights, so every layer's Merge-Fiber gets an
  // equal share. Without Symbolic3D's counts, or at l = 1, the weights are
  // all zero and equal_flops_cut keeps part_low.
  const std::vector<Index> weights =
      opts.force_batches == 0 && l > 1
          ? fiber_weights(grid, result.symbolic.col_nnz)
          : std::vector<Index>(static_cast<std::size_t>(psize), 0);
  CASP_CHECK(static_cast<Index>(weights.size()) == psize);
  std::vector<Index> cut;  // the l * eff_batches + 1 block boundaries

  // The kept output's pieces, in emission order.
  std::vector<CscMat> kept_pieces;
  if (keep_output) kept_pieces.reserve(static_cast<std::size_t>(num_batches));

  // Adaptive re-batch state. eff_batches is the current granularity and bi
  // the next batch at that granularity; when a batch overruns the budget,
  // both double (the cut nests: batch bi of b == batches 2bi, 2bi+1 of 2b,
  // so completed coarser batches and the refined remainder still tile my
  // layer's column slice in ascending order). Empty blocks past
  // max_batches cannot shrink further, so a failure there is final.
  const bool adaptive = opts.adaptive_rebatch && opts.memory != nullptr;
  const Index max_batches = std::max<Index>(1, b.global_cols);
  Index eff_batches = num_batches;
  Index bi = 0;

  // A finished piece goes to the callback and, when output is kept, to
  // kept_pieces; replayed pieces take the same path.
  const auto deliver = [&](CscMat piece, const BatchInfo& at) {
    if (on_batch) {
      if (keep_output) kept_pieces.push_back(piece);
      on_batch(std::move(piece), at);
    } else if (keep_output) {
      kept_pieces.push_back(std::move(piece));
    }
  };

  // Batch-boundary checkpointing. Each save is a delta generation over the
  // previous one: the pieces emitted since (plus every piece's PieceMeta
  // coordinates), written once, so the job's saves write each piece once.
  // A piece completing the cadence is saved before it is delivered; only
  // the ckpt_every - 1 pieces before it wait in `unsaved` as copies.
  ckpt::Checkpointer* ck = opts.ckpt;
  const bool ckpt_on = ck != nullptr && ck->enabled();
  std::vector<PieceMeta> emitted_meta;
  std::vector<CscMat> unsaved;
  std::size_t saved = 0;  // pieces [0, saved) are in generation ckpt_parent
  std::int64_t ckpt_parent = ckpt::kNoParent;
  std::string ckpt_job;
  const auto save_ckpt = [&](const CscMat* last) {
    ckpt::Snapshot snap;
    if (ckpt_parent == ckpt::kNoParent) {
      // The writer's grid lets a reader keep one grid epoch of a directory
      // (redistribute_for_grid). Deltas inherit it.
      snap.set_u64("grid_ranks",
                   static_cast<std::uint64_t>(grid.world().size()));
      snap.set_u64("grid_layers", static_cast<std::uint64_t>(l));
    }
    snap.set_u64("pieces", emitted_meta.size());
    snap.set_array("piece_meta", emitted_meta);
    for (std::size_t k = saved; k < emitted_meta.size(); ++k)
      snap.borrow_matrix("piece" + std::to_string(k),
                         k - saved < unsaved.size() ? unsaved[k - saved]
                                                    : *last);
    ckpt_parent = ck->save(ckpt::kSummaCkptScope, ckpt_job, std::move(snap),
                           ckpt_parent);
    saved = emitted_meta.size();
    unsaved.clear();
  };

  // My layer's slice of my B part: by nesting, the columns of all my
  // batches at any granularity (and of the kept output).
  const std::vector<Index> layer_cut = equal_flops_cut(weights, l);
  const LocalRange my_cols = {
      b.cols.start + layer_cut[static_cast<std::size_t>(grid.layer())],
      layer_cut[static_cast<std::size_t>(grid.layer()) + 1] -
          layer_cut[static_cast<std::size_t>(grid.layer())]};

  // Resume, one path whatever grid wrote the checkpoints: each rank
  // rebuilds its own block of C from the saved pieces' global coordinates,
  // and every batch all ranks have recovered is emitted from that cache
  // instead of computed. Recovered pieces reach the callback like computed
  // ones — the uniform contract whether the consumer streams to disk (the
  // writer re-truncates, so recovered streamed output is byte-identical)
  // or gathers pieces in memory.
  ckpt::ResumeCache resume;
  bool resuming = false;
  if (ckpt_on) {
    // Job identity: deterministic and grid-independent, so a snapshot can
    // resume the run (and, via ckpt_job_tag, the outer-loop iteration) that
    // wrote it on any grid shape. Stale snapshots in the same directory are
    // skipped by load_all.
    ckpt_job = summa_ckpt_job_id(
        a.global_rows, a.global_cols, b.global_cols, a.global_nnz,
        b.global_nnz, opts.ckpt_job_tag,
        opts.mask != nullptr ? std::optional<Index>(opts.mask->nnz())
                             : std::nullopt);
    resume = ckpt::redistribute_for_grid(
        ck->dir(), ckpt_job,
        {a.rows.start, a.rows.start + a.rows.count, my_cols.start,
         my_cols.start + my_cols.count});
    // Does any rank hold pieces? The one round a fresh job pays.
    vmpi::ScopedPhase resume_phase(grid.world().traffic(),
                                   steps::kCkptResume);
    resuming = grid.world().allreduce_max<std::int64_t>(
                   resume.empty() ? 0 : 1) != 0;
  }
  Index recovered = 0;

  // Cooperative pause (regrow support): counts freshly computed batches —
  // recovered ones are free and don't consume the allowance. Every
  // input to the decision is SPMD-consistent, so all ranks pause together.
  const Index pause_after = opts.pause_after_batches;
  Index fresh_batches = 0;

  while (bi < eff_batches) {
    obs::ScopedTag batch_tag(rec, obs::ScopedTag::Kind::kBatch,
                             static_cast<int>(bi));
    const Index nblocks = l * eff_batches;
    if (static_cast<Index>(cut.size()) != nblocks + 1)
      cut = equal_flops_cut(weights, nblocks);
    const auto block_low = [&](Index t) {
      return cut[static_cast<std::size_t>(t)];
    };
    const Index my_block =
        bi + static_cast<Index>(grid.layer()) * eff_batches;
    BatchInfo info;
    info.batch_index = bi;
    info.num_batches = eff_batches;
    info.global_nrows = a.global_rows;
    info.global_ncols = b.global_cols;
    info.global_rows = a.rows;
    info.global_cols = {b.cols.start + block_low(my_block),
                        block_low(my_block + 1) - block_low(my_block)};
    // A recovered piece waits in `unsaved`: the recovered prefix is saved
    // as one generation before the first computed batch.
    const auto emit = [&](CscMat piece, bool computed) {
      CASP_CHECK(piece.ncols() == info.global_cols.count);
      if (ckpt_on) {
        emitted_meta.push_back(PieceMeta{
            info.global_rows.start, info.global_rows.count,
            info.global_cols.start, info.global_cols.count});
        if (computed && ck->due(emitted_meta.size()))
          save_ckpt(&piece);
        else
          unsaved.push_back(piece);
      }
      deliver(std::move(piece), info);
      ++bi;
    };

    if (resuming) {
      // Per-batch coverage consensus. Verdicts skew across ranks when the
      // writers saved a generation apart (my columns recovered, a peer's
      // not), and summa3d is collective — every rank must take the same
      // branch, so the job-wide minimum decides.
      const Index c0 = info.global_cols.start;
      const Index c1 = c0 + info.global_cols.count;
      int all_covered = 0;
      {
        vmpi::ScopedPhase resume_phase(grid.world().traffic(),
                                       steps::kCkptResume);
        all_covered =
            grid.world().allreduce_min<int>(resume.cols_covered(c0, c1));
      }
      if (all_covered != 0) {
        // Every value is copied from the saved pieces, never recomputed —
        // the recovered batch is bit-exact whatever grid wrote it.
        if (recovered++ == 0 && !resume.empty())
          ck->note_resume(resume.generation());
        rec.add_counter("summa.cached_batches", 1);
        emit(resume.extract(c0, c1), /*computed=*/false);
        continue;
      }
      // Keep what was recovered before computing: a second crash then
      // never finds less progress than this resume did.
      if (saved < emitted_meta.size()) save_ckpt(nullptr);
    }

    // Line 4, Alg. 4 + Fig. 1(i): batch bi = blocks {bi + m*b : m < l} of
    // the (l*b)-way block-cyclic column split of my local B part.
    std::vector<std::pair<Index, Index>> ranges(static_cast<std::size_t>(l));
    std::vector<Index> splits(static_cast<std::size_t>(l) + 1, 0);
    for (Index m = 0; m < l; ++m) {
      const Index t = bi + m * eff_batches;
      ranges[static_cast<std::size_t>(m)] = {block_low(t), block_low(t + 1)};
      splits[static_cast<std::size_t>(m) + 1] =
          splits[static_cast<std::size_t>(m)] +
          (ranges[static_cast<std::size_t>(m)].second -
           ranges[static_cast<std::size_t>(m)].first);
    }
    if (adaptive) opts.memory->begin_probe();
    CscMat local_b_batch = b.local.select_col_ranges(ranges);
    MemoryCharge batch_charge;
    if (opts.memory != nullptr)
      batch_charge = MemoryCharge(
          *opts.memory,
          static_cast<Bytes>(local_b_batch.nnz()) * kBytesPerNonzero,
          "B batch slice");

    // The symbolic per-column counts index my full local B part; the
    // batch's hint slice is the same range concatenation as its column
    // selection above, so hint j lines up with batch output column j.
    SummaOptions batch_opts = opts;
    std::vector<Index> batch_hints;
    const std::vector<Index>& sym_cols = result.symbolic.col_nnz;
    if (!sym_cols.empty() &&
        static_cast<Index>(sym_cols.size()) == psize) {
      batch_hints.reserve(static_cast<std::size_t>(local_b_batch.ncols()));
      for (const auto& [lo, hi] : ranges)
        batch_hints.insert(batch_hints.end(),
                           sym_cols.begin() + static_cast<std::ptrdiff_t>(lo),
                           sym_cols.begin() + static_cast<std::ptrdiff_t>(hi));
      batch_opts.symbolic_col_nnz = batch_hints;
    }

    // Line 6, Alg. 4: one SUMMA3D per batch, with the batch's block
    // boundaries as the fiber split points. My merged piece is block
    // (bi + layer*b), a contiguous global column range.
    const CscMat batch_mask = opts.mask != nullptr
                                  ? mask_part.select_col_ranges(ranges)
                                  : CscMat();
    CscMat c_piece =
        summa3d<SR>(grid, a.local, local_b_batch, batch_opts, splits,
                    opts.mask != nullptr ? &batch_mask : nullptr);
    if (opts.memory != nullptr)
      rec.sample_memory(*opts.memory, "memory.live_bytes");

    if (adaptive) {
      // Batch-boundary consensus: inside the probe window no rank throws,
      // so every rank reaches this allreduce; the job-wide max of the
      // overrun flags is the SPMD-consistent verdict every rank acts on.
      const int my_overrun = opts.memory->end_probe() ? 1 : 0;
      int any_overrun = 0;
      {
        vmpi::ScopedPhase consensus_phase(grid.world().traffic(),
                                          steps::kRebatchConsensus);
        any_overrun = grid.world().allreduce_max<int>(my_overrun);
      }
      if (any_overrun != 0) {
        // Release the failed batch's partial state, then refine: the
        // remaining batches bi..eff-1 become 2bi..2eff-1 at the doubled
        // granularity. When even single-column blocks overrun, splitting
        // cannot help — give up with the classified budget error.
        c_piece = CscMat();
        local_b_batch = CscMat();
        batch_charge.reset();
        if (eff_batches >= max_batches) {
          // Single-column blocks still overrun: no granularity can fit.
          // eff_batches is SPMD-consistent, so every rank throws here
          // together; vmpi::run classifies this as "memory_budget".
          throw MemoryError(
              "adaptive re-batching exhausted: batch overruns the memory "
              "budget even at one column per block (" +
              std::to_string(eff_batches) + " batches)");
        }
        ++result.rebatch_events;
        rec.add_counter("summa.rebatch_events", 1);
        bi *= 2;
        eff_batches *= 2;
        continue;
      }
    }

    emit(std::move(c_piece), /*computed=*/true);
    if (pause_after > 0 && ++fresh_batches >= pause_after &&
        bi < eff_batches) {
      // Park at the boundary: a forced save makes the pause durable even
      // off the regular cadence, so the resumed attempt (on this grid or
      // another) loses nothing.
      if (ckpt_on && saved < emitted_meta.size()) save_ckpt(nullptr);
      result.paused = true;
      break;
    }
  }
  result.final_batches = eff_batches;
  rec.set_counter("summa.final_batches", eff_batches);

  if (keep_output && !result.paused) {
    // Line 7, Alg. 4: batch pieces are blocks layer*b .. layer*b + b - 1 in
    // ascending global order, so plain concatenation restores my layer's
    // slice of C exactly: by nesting, it is part `layer` of the l-way cut.
    result.c.global_rows = a.global_rows;
    result.c.global_cols = b.global_cols;
    result.c.rows = a.rows;
    result.c.cols = my_cols;
    result.c.local = CscMat::concat_cols(kept_pieces);
    CASP_CHECK(result.c.local.ncols() == result.c.cols.count);
    if (opts.memory != nullptr) {
      // The kept output is a deliberate *extra* cost on top of the batched
      // working set; charge it transiently to surface budget violations.
      MemoryCharge output_charge(
          *opts.memory,
          static_cast<Bytes>(result.c.local.nnz()) * kBytesPerNonzero,
          "concatenated output");
    }
  }
  return result;
}

template BatchedResult batched_summa3d<PlusTimes>(Grid3D&, const DistMat3D&,
                                                  const DistMat3D&, Bytes,
                                                  const SummaOptions&,
                                                  const BatchCallback&, bool);
template BatchedResult batched_summa3d<MinPlus>(Grid3D&, const DistMat3D&,
                                                const DistMat3D&, Bytes,
                                                const SummaOptions&,
                                                const BatchCallback&, bool);
template BatchedResult batched_summa3d<MaxMin>(Grid3D&, const DistMat3D&,
                                               const DistMat3D&, Bytes,
                                               const SummaOptions&,
                                               const BatchCallback&, bool);
template BatchedResult batched_summa3d<OrAnd>(Grid3D&, const DistMat3D&,
                                              const DistMat3D&, Bytes,
                                              const SummaOptions&,
                                              const BatchCallback&, bool);

}  // namespace casp
