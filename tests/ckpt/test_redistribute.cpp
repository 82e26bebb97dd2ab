// Degraded-grid recovery: checkpoints written by one grid shape, consumed
// by another (DESIGN.md §5j shrink, §5k regrow). The ResumeCache unit
// tests pin the exact-coverage and reindexing contracts; the regrid
// matrices prove the headline guarantee in both directions — a job
// relaunched on a survivor OR regrown grid with redistributed checkpoints
// produces C bit-identically (tolerance 0.0), whether every batch comes
// from the cache (fault-free full coverage) or only a prefix does
// (permanent crash mid-run).
//
// Cross-grid bit-identity of *computed* batches only holds when summation
// order cannot matter, so these tests use integer-valued inputs (exact in
// doubles regardless of association). Cached batches are bit-exact copies
// for any values — the integer restriction is about the recomputed tail
// and the different-grid baseline, not the cache.
//
// The Recovery* suite below joins check.sh stage (g)'s CASP_FAULT_SEED
// sweep: each seed perm-kills a different rank at a different op.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "apps/mcl.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/redistribute.hpp"
#include "gen/rmat.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "sparse/triple_mat.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

namespace fs = std::filesystem;

std::uint64_t sweep_seed() {
  const char* env = std::getenv("CASP_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/casp_redist_" + name +
                          "_s" + std::to_string(sweep_seed());
  fs::remove_all(dir);
  return dir;
}

std::int64_t counter_sum(const vmpi::RunResult& result,
                         const std::string& name) {
  std::int64_t sum = 0;
  for (const auto& rec : result.recorders) {
    const auto it = rec.counters().find(name);
    if (it != rec.counters().end()) sum += it->second;
  }
  return sum;
}

// ER matrix with values forced onto small integers: products of these are
// exact in double no matter how a grid shape associates the partial sums,
// which is what makes a cross-grid tolerance-0.0 comparison legitimate.
CscMat integer_values(const CscMat& m) {
  TripleMat t(m.nrows(), m.ncols());
  for (Index j = 0; j < m.ncols(); ++j) {
    const auto ids = m.col_rowids(j);
    const auto vs = m.col_vals(j);
    for (std::size_t k = 0; k < ids.size(); ++k)
      t.push_back(ids[k], j, 1.0 + std::floor(vs[k] * 8.0));
  }
  return CscMat::from_triples(std::move(t));
}

CscMat integer_matrix(Index rows, Index cols, double density,
                      std::uint64_t seed) {
  return integer_values(testing::random_matrix(rows, cols, density, seed));
}

struct GridRun {
  CscMat c;
  vmpi::RunResult result;
  Index final_batches = 0;
};

// One batched SpGEMM a*a on a p-rank grid. ckpt_dir non-empty => write
// batch-boundary checkpoints there (every=1); resume non-null => consume
// redistributed state from a previous grid shape.
GridRun run_spgemm(int p, int layers, const CscMat& a,
                   const SummaOptions& base_opts, const std::string& ckpt_dir,
                   const ckpt::ResumeCache* resume) {
  GridRun out;
  out.result = vmpi::run(p, [&](vmpi::Comm& world) {
    SummaOptions opts = base_opts;
    ckpt::Checkpointer ck;  // disabled unless a directory was given
    if (!ckpt_dir.empty()) {
      ck = ckpt::Checkpointer(ckpt_dir, world.rank(), /*every=*/1,
                              &world.recorder());
      opts.ckpt = &ck;
    }
    opts.resume = resume;
    Grid3D grid(world, layers);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0, opts,
                                                 nullptr, /*keep_output=*/true);
    CscMat full = gather_dist(grid, r.c);
    if (world.rank() == 0) {
      out.c = std::move(full);
      out.final_batches = r.final_batches;
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// ResumeCache unit contracts.

TEST(RedistributeCache, CoverageIsExactNotAtLeast) {
  ckpt::ResumeCache cache(4, 4);
  EXPECT_TRUE(cache.empty());
  EXPECT_EQ(cache.global_rows(), 4);
  EXPECT_EQ(cache.global_cols(), 4);
  EXPECT_FALSE(cache.cols_covered(0, 1));

  // Top half of columns [0, 4).
  {
    TripleMat t(2, 4);
    t.push_back(0, 0, 5.0);
    t.push_back(1, 2, 7.0);
    cache.add_piece(
        ckpt::CachedPiece{0, 2, 0, 4, CscMat::from_triples(std::move(t))});
  }
  EXPECT_FALSE(cache.cols_covered(0, 4)) << "half-covered must not count";

  // Bottom half of columns [0, 2) only.
  {
    TripleMat t(2, 2);
    t.push_back(0, 1, 9.0);
    cache.add_piece(
        ckpt::CachedPiece{2, 2, 0, 2, CscMat::from_triples(std::move(t))});
  }
  EXPECT_TRUE(cache.cols_covered(0, 2));
  EXPECT_FALSE(cache.cols_covered(0, 3));
  EXPECT_FALSE(cache.cols_covered(2, 4));
  // Out-of-range queries refuse rather than throw (callers branch on it).
  EXPECT_FALSE(cache.cols_covered(-1, 2));
  EXPECT_FALSE(cache.cols_covered(0, 5));

  // An overlapping duplicate piece pushes the tally PAST global_rows: the
  // exact-equality test must refuse coverage (extraction would double
  // entries), degrading to recomputation instead of wrong values.
  {
    TripleMat t(2, 1);
    cache.add_piece(
        ckpt::CachedPiece{2, 2, 1, 1, CscMat::from_triples(std::move(t))});
  }
  EXPECT_FALSE(cache.cols_covered(1, 2)) << "overlap must break coverage";
  EXPECT_TRUE(cache.cols_covered(0, 1)) << "other columns stay covered";
}

TEST(RedistributeCache, ExtractReindexesBitExactly) {
  ckpt::ResumeCache cache(4, 3);
  {
    TripleMat t(2, 3);
    t.push_back(0, 0, 1.5);
    t.push_back(1, 1, 2.5);
    cache.add_piece(
        ckpt::CachedPiece{0, 2, 0, 3, CscMat::from_triples(std::move(t))});
  }
  {
    TripleMat t(2, 3);
    t.push_back(1, 0, 3.5);
    t.push_back(0, 2, 4.5);
    cache.add_piece(
        ckpt::CachedPiece{2, 2, 0, 3, CscMat::from_triples(std::move(t))});
  }
  ASSERT_TRUE(cache.cols_covered(0, 3));

  // Whole shape: global coordinates restored from piece-local ones.
  const CscMat whole = cache.extract(0, 4, 0, 3);
  ASSERT_EQ(whole.nrows(), 4);
  ASSERT_EQ(whole.ncols(), 3);
  ASSERT_EQ(whole.nnz(), 4);
  EXPECT_EQ(whole.col_rowids(0)[0], 0);
  EXPECT_EQ(whole.col_vals(0)[0], 1.5);
  EXPECT_EQ(whole.col_rowids(0)[1], 3);
  EXPECT_EQ(whole.col_vals(0)[1], 3.5);
  EXPECT_EQ(whole.col_rowids(1)[0], 1);
  EXPECT_EQ(whole.col_vals(1)[0], 2.5);
  EXPECT_EQ(whole.col_rowids(2)[0], 2);
  EXPECT_EQ(whole.col_vals(2)[0], 4.5);

  // A sub-block reindexes to ITS origin: global row 3 becomes local row 2
  // of an extract starting at row 1.
  const CscMat block = cache.extract(1, 4, 0, 1);
  ASSERT_EQ(block.nrows(), 3);
  ASSERT_EQ(block.ncols(), 1);
  ASSERT_EQ(block.nnz(), 1);
  EXPECT_EQ(block.col_rowids(0)[0], 2);
  EXPECT_EQ(block.col_vals(0)[0], 3.5);
}

TEST(RedistributeCache, RejectsOutOfShapePieces) {
  ckpt::ResumeCache cache(4, 4);
  TripleMat t(2, 2);
  EXPECT_THROW(cache.add_piece(ckpt::CachedPiece{
                   3, 2, 0, 2, CscMat::from_triples(std::move(t))}),
               std::logic_error);
  TripleMat t2(3, 2);  // matrix dims disagree with declared row_count
  EXPECT_THROW(cache.add_piece(ckpt::CachedPiece{
                   0, 2, 0, 2, CscMat::from_triples(std::move(t2))}),
               std::logic_error);
}

TEST(RedistributeScan, MissingOrForeignDirectoryYieldsEmptyCache) {
  EXPECT_TRUE(ckpt::redistribute_for_grid("", "job").empty());
  EXPECT_TRUE(
      ckpt::redistribute_for_grid("/nonexistent/casp/dir", "job").empty());
  const std::string dir = fresh_dir("foreign");
  fs::create_directories(dir);
  EXPECT_TRUE(ckpt::redistribute_for_grid(dir, "job").empty());
}

// ---------------------------------------------------------------------------
// Fault-free regrid matrix: full coverage => every batch served from the
// cache, zero recomputation, bit-identical output on every target shape.
// The cache stores global coordinates, so the same helper proves both
// directions — shrink onto a survivor grid and regrow onto a larger one.

void expect_full_coverage_regrid(int p_from, int p_to,
                                 const SummaOptions& base_opts,
                                 const std::string& tag) {
  const Index n = 24;
  const CscMat a = integer_matrix(n, n, 3.0, 160);
  const std::string ck_dir = fresh_dir("shrink_" + tag);

  const GridRun full = run_spgemm(p_from, 1, a, base_opts, ck_dir, nullptr);
  ASSERT_GE(full.final_batches, base_opts.force_batches);

  const ckpt::ResumeCache cache = ckpt::redistribute_for_grid(
      ck_dir, summa_ckpt_job_id(n, n, n, a.nnz(), a.nnz(), ""));
  ASSERT_FALSE(cache.empty());
  ASSERT_TRUE(cache.cols_covered(0, n)) << "fault-free run must cover all C";

  const GridRun shrunk = run_spgemm(p_to, 1, a, base_opts, "", &cache);
  testing::expect_mat_near(shrunk.c, full.c, 0.0);
  // Every batch on every survivor rank came from the cache.
  EXPECT_EQ(counter_sum(shrunk.result, "summa.cached_batches"),
            static_cast<std::int64_t>(p_to) * shrunk.final_batches);
}

TEST(RedistributeShrink, SixteenToNine) {
  SummaOptions opts;
  opts.force_batches = 3;
  expect_full_coverage_regrid(16, 9, opts, "16to9");
}

TEST(RedistributeShrink, NineToFour) {
  SummaOptions opts;
  opts.force_batches = 3;
  expect_full_coverage_regrid(9, 4, opts, "9to4");
}

TEST(RedistributeShrink, FourToOne) {
  SummaOptions opts;
  opts.force_batches = 3;
  expect_full_coverage_regrid(4, 1, opts, "4to1");
}

TEST(RedistributeShrink, SparseCommVariant) {
  SummaOptions opts;
  opts.force_batches = 3;
  opts.sparse_comm = true;
  expect_full_coverage_regrid(9, 4, opts, "sparse");
}

TEST(RedistributeShrink, LayeredWriterGrid) {
  // The writer grid uses l=2 layers; the coordinates are grid-independent
  // so a flat survivor grid still consumes them.
  SummaOptions opts;
  opts.force_batches = 2;
  const Index n = 24;
  const CscMat a = integer_matrix(n, n, 3.0, 161);
  const std::string ck_dir = fresh_dir("shrink_layered");

  const GridRun full = run_spgemm(8, 2, a, opts, ck_dir, nullptr);
  const ckpt::ResumeCache cache = ckpt::redistribute_for_grid(
      ck_dir, summa_ckpt_job_id(n, n, n, a.nnz(), a.nnz(), ""));
  ASSERT_TRUE(cache.cols_covered(0, n));
  const GridRun shrunk = run_spgemm(4, 1, a, opts, "", &cache);
  testing::expect_mat_near(shrunk.c, full.c, 0.0);
}

TEST(RedistributeShrink, MismatchedShapeCacheIsIgnored) {
  // A cache built for a different product shape must be disarmed by the
  // consumer, not trip its collectives: the run recomputes everything.
  SummaOptions opts;
  opts.force_batches = 2;
  const Index n = 24;
  const CscMat a = integer_matrix(n, n, 3.0, 162);
  const CscMat other = integer_matrix(n + 2, n + 2, 3.0, 163);
  const std::string ck_dir = fresh_dir("shrink_mismatch");

  (void)run_spgemm(4, 1, other, opts, ck_dir, nullptr);
  const ckpt::ResumeCache cache = ckpt::redistribute_for_grid(
      ck_dir,
      summa_ckpt_job_id(n + 2, n + 2, n + 2, other.nnz(), other.nnz(), ""));
  ASSERT_FALSE(cache.empty());

  const GridRun plain = run_spgemm(4, 1, a, opts, "", nullptr);
  const GridRun with_cache = run_spgemm(4, 1, a, opts, "", &cache);
  testing::expect_mat_near(with_cache.c, plain.c, 0.0);
  EXPECT_EQ(counter_sum(with_cache.result, "summa.cached_batches"), 0);
}

// ---------------------------------------------------------------------------
// The fiber split (DESIGN.md §5o) cuts C's columns by Symbolic3D's counts,
// which depend on the grid shape. A layered run paused on one grid resumes
// on another whose blocks fall elsewhere: the cache serves the batches it
// covers, the rest recompute, and C stays exact.

TEST(RedistributeFiberCut, PausedLayeredRunResumesOnAGridWithAnotherCut) {
  RmatParams rp;
  rp.scale = 8;
  rp.seed = 7;
  const CscMat a = integer_values(generate_rmat(rp));
  const Index n = a.ncols();
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  const std::string ck_dir = fresh_dir("fiber_cut");

  // The budget M at which Eq. (2) picks `batches` on a 1x1xl grid.
  const auto budget_for = [&](int l, Index batches) {
    Bytes budget = 0;
    vmpi::run(l, [&](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const auto [ra, rb] = rebalance_inner(
          grid, distribute_a_style(grid, a), distribute_b_style(grid, a));
      const SymbolicResult sym = symbolic3d(grid, ra.local, rb.local, 0);
      const double r = static_cast<double>(kBytesPerNonzero);
      const double per_rank =
          r * static_cast<double>(sym.max_nnz_a + sym.max_nnz_b) +
          r * static_cast<double>(sym.max_nnz_c) /
              (static_cast<double>(batches) - 0.5);
      if (world.rank() == 0) budget = static_cast<Bytes>(l * per_rank);
    });
    return budget;
  };

  const auto run = [&](int l, Index batches, const SummaOptions& opts,
                       bool checkpoint, CscMat* c_out) {
    const Bytes budget = budget_for(l, batches);
    return vmpi::run(l, [&](vmpi::Comm& world) {
      SummaOptions o = opts;
      ckpt::Checkpointer ck;
      if (checkpoint) {
        ck = ckpt::Checkpointer(ck_dir, world.rank(), /*every=*/1,
                                &world.recorder());
        o.ckpt = &ck;
      }
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, budget, o,
                                                   nullptr,
                                                   /*keep_output=*/true);
      EXPECT_EQ(r.batches, batches);
      EXPECT_EQ(r.paused, c_out == nullptr);
      if (r.paused) return;
      CscMat full = gather_dist(grid, r.c);
      if (world.rank() == 0) *c_out = std::move(full);
    });
  };

  // Writer: 1x1x4 at b = 4, paused before each layer's last block with a
  // forced checkpoint.
  SummaOptions writer_opts;
  writer_opts.pause_after_batches = 3;
  const vmpi::RunResult writer = run(4, 4, writer_opts, true, nullptr);
  EXPECT_GT(counter_sum(writer, "summa.fiber_nnz_max_in"),
            counter_sum(writer, "summa.fiber_nnz_max"));

  // Reader: 1x1x2 at b = 8, with its own counts and cut. Its finer blocks
  // let some batches fall wholly inside the writer's covered columns.
  const ckpt::ResumeCache cache = ckpt::redistribute_for_grid(
      ck_dir, summa_ckpt_job_id(n, n, n, a.nnz(), a.nnz(), ""));
  ASSERT_FALSE(cache.empty());
  ASSERT_FALSE(cache.cols_covered(0, n)) << "the writer must stop midway";
  SummaOptions reader_opts;
  reader_opts.resume = &cache;
  CscMat resumed;
  const vmpi::RunResult reader = run(2, 8, reader_opts, false, &resumed);
  const std::int64_t cached = counter_sum(reader, "summa.cached_batches");
  EXPECT_GT(cached, 0);
  EXPECT_LT(cached, 2 * 8) << "some batches must recompute";
  testing::expect_mat_near(resumed, expected, 0.0);
}

// ---------------------------------------------------------------------------
// Expand direction: the regrow path (DESIGN.md §5k) replays a degraded
// grid's banked batches onto a LARGER grid — the cache coordinates are
// global, so nothing in redistribute is direction-aware. Full coverage
// still means zero recomputation on the bigger shape.

TEST(RedistributeExpand, OneToFour) {
  SummaOptions opts;
  opts.force_batches = 3;
  expect_full_coverage_regrid(1, 4, opts, "1to4");
}

TEST(RedistributeExpand, FourToNine) {
  SummaOptions opts;
  opts.force_batches = 3;
  expect_full_coverage_regrid(4, 9, opts, "4to9");
}

TEST(RedistributeExpand, NineToSixteen) {
  SummaOptions opts;
  opts.force_batches = 3;
  expect_full_coverage_regrid(9, 16, opts, "9to16");
}

TEST(RedistributeExpand, SixteenToFourToSixteenRoundTrip) {
  // Shrink-then-regrow round trip: 16 banks the run, 4 consumes it while
  // re-banking every (cached) batch into its own directory, and 16 consumes
  // THAT. Cached batches flow through the same emit path as computed ones,
  // so the second directory is a complete bank in the 4-grid's shape and
  // the regrown run is fully cache-served and bit-identical.
  SummaOptions opts;
  opts.force_batches = 3;
  const Index n = 24;
  const CscMat a = integer_matrix(n, n, 3.0, 165);
  const std::string job = summa_ckpt_job_id(n, n, n, a.nnz(), a.nnz(), "");
  const std::string dir16 = fresh_dir("roundtrip_16");
  const std::string dir4 = fresh_dir("roundtrip_4");

  const GridRun full = run_spgemm(16, 1, a, opts, dir16, nullptr);
  const ckpt::ResumeCache cache16 = ckpt::redistribute_for_grid(dir16, job);
  ASSERT_TRUE(cache16.cols_covered(0, n));

  const GridRun mid = run_spgemm(4, 1, a, opts, dir4, &cache16);
  testing::expect_mat_near(mid.c, full.c, 0.0);
  EXPECT_EQ(counter_sum(mid.result, "summa.cached_batches"),
            static_cast<std::int64_t>(4) * mid.final_batches);

  const ckpt::ResumeCache cache4 = ckpt::redistribute_for_grid(dir4, job);
  ASSERT_TRUE(cache4.cols_covered(0, n));
  const GridRun regrown = run_spgemm(16, 1, a, opts, "", &cache4);
  testing::expect_mat_near(regrown.c, full.c, 0.0);
  EXPECT_EQ(counter_sum(regrown.result, "summa.cached_batches"),
            static_cast<std::int64_t>(16) * regrown.final_batches);
}

// ---------------------------------------------------------------------------
// Permanent crash mid-run on the big grid, finish on the survivor grid.
// Recovery* prefix: check.sh stage (g) sweeps this across fault seeds.

TEST(RecoveryRedistribute, PermCrashThenShrinkIsBitIdentical) {
  const int p_from = 9, p_to = 4;
  const Index n = 24;
  const CscMat a = integer_matrix(n, n, 3.0, 164);
  SummaOptions opts;
  opts.force_batches = 4;

  // Fault-free reference on the ORIGINAL grid (the output the user was
  // promised before the hardware died).
  const GridRun reference = run_spgemm(p_from, 1, a, opts, "", nullptr);

  // Perm-kill one rank mid-run; each sweep seed picks a different victim
  // and op. The run must fail classified — permanent crashes are not
  // survivable on the same grid.
  const std::string ck_dir = fresh_dir("perm_shrink");
  vmpi::FaultPlan plan;
  plan.seed = sweep_seed();
  plan.perm_crash_rank =
      static_cast<int>(sweep_seed() % static_cast<std::uint64_t>(p_from));
  // Every rank performs ~40 vmpi ops in this run (root duties shift the
  // exact count), so the crash op must stay well below that for every
  // sweep seed — ops 12..24 land between the distribution phase and the
  // middle batches.
  plan.perm_crash_op = 12 + 3 * (sweep_seed() % 5);
  vmpi::RunOptions ropts;
  ropts.faults = plan;
  ropts.capture_failure = true;
  vmpi::RunResult crashed = vmpi::run(
      p_from,
      [&](vmpi::Comm& world) {
        ckpt::Checkpointer ck(ck_dir, world.rank(), /*every=*/1,
                              &world.recorder());
        SummaOptions copts = opts;
        copts.ckpt = &ck;
        Grid3D grid(world, 1);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, a);
        (void)batched_summa3d<PlusTimes>(grid, da, db, 0, copts, nullptr,
                                         /*keep_output=*/false);
      },
      ropts);
  ASSERT_TRUE(crashed.failed());
  EXPECT_EQ(crashed.failure->kind, "permanent_crash");
  EXPECT_EQ(crashed.failure->rank, plan.perm_crash_rank);

  // Redistribute whatever the dead grid banked onto the survivor grid and
  // finish there. Partial coverage is fine — uncovered batches recompute —
  // and the result must equal the original grid's fault-free output
  // exactly.
  const ckpt::ResumeCache cache = ckpt::redistribute_for_grid(
      ck_dir, summa_ckpt_job_id(n, n, n, a.nnz(), a.nnz(), ""));
  const GridRun shrunk =
      run_spgemm(p_to, 1, a, opts, "", cache.empty() ? nullptr : &cache);
  testing::expect_mat_near(shrunk.c, reference.c, 0.0);
}

TEST(RecoveryRedistribute, PermCrashThenRegrowIsBitIdentical) {
  // The mirror drill: the SMALL grid dies mid-run and a healed pool offers
  // a LARGER one. Partial coverage regrows — covered batches are copied,
  // the tail recomputes on the 9-grid — and the result still equals the
  // 4-grid's fault-free output bit-for-bit.
  const int p_from = 4, p_to = 9;
  const Index n = 24;
  const CscMat a = integer_matrix(n, n, 3.0, 166);
  SummaOptions opts;
  opts.force_batches = 4;

  const GridRun reference = run_spgemm(p_from, 1, a, opts, "", nullptr);

  const std::string ck_dir = fresh_dir("perm_regrow");
  vmpi::FaultPlan plan;
  plan.seed = sweep_seed();
  plan.perm_crash_rank =
      static_cast<int>(sweep_seed() % static_cast<std::uint64_t>(p_from));
  plan.perm_crash_op = 12 + 3 * (sweep_seed() % 5);
  vmpi::RunOptions ropts;
  ropts.faults = plan;
  ropts.capture_failure = true;
  vmpi::RunResult crashed = vmpi::run(
      p_from,
      [&](vmpi::Comm& world) {
        ckpt::Checkpointer ck(ck_dir, world.rank(), /*every=*/1,
                              &world.recorder());
        SummaOptions copts = opts;
        copts.ckpt = &ck;
        Grid3D grid(world, 1);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, a);
        (void)batched_summa3d<PlusTimes>(grid, da, db, 0, copts, nullptr,
                                         /*keep_output=*/false);
      },
      ropts);
  ASSERT_TRUE(crashed.failed());
  EXPECT_EQ(crashed.failure->kind, "permanent_crash");

  const ckpt::ResumeCache cache = ckpt::redistribute_for_grid(
      ck_dir, summa_ckpt_job_id(n, n, n, a.nnz(), a.nnz(), ""));
  const GridRun regrown =
      run_spgemm(p_to, 1, a, opts, "", cache.empty() ? nullptr : &cache);
  testing::expect_mat_near(regrown.c, reference.c, 0.0);
}

// ---------------------------------------------------------------------------
// MCL shrinks natively: its checkpoint job id and iterate are both
// grid-independent (the global network is re-replicated on relaunch), so a
// survivor grid resumes the iteration trajectory without redistribution.

TEST(RecoveryRedistributeMcl, PermCrashResumesOnSmallerGrid) {
  const int p_from = 9, p_to = 4;
  TripleMat t(24, 24);
  for (Index block = 0; block < 2; ++block)
    for (Index i = 0; i < 12; ++i)
      for (Index j = 0; j < 12; ++j)
        t.push_back(block * 12 + i, block * 12 + j,
                    1.0 + 0.1 * static_cast<double>((i * 7 + j * 13) % 5));
  for (Index i = 0; i < 12; ++i) t.push_back(i, 12 + i, 0.05);
  const CscMat network = CscMat::from_triples(std::move(t));
  MclParams params;
  params.max_iterations = 30;

  MclResult base;
  vmpi::run(p_to, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    MclResult r = mcl_cluster_distributed(grid, network, params);
    if (world.rank() == 0) base = std::move(r);
  });
  ASSERT_GE(base.iterations, 3);

  const std::string ck_dir = fresh_dir("mcl_shrink");
  vmpi::FaultPlan plan;
  plan.seed = sweep_seed();
  plan.perm_crash_rank =
      static_cast<int>(sweep_seed() % static_cast<std::uint64_t>(p_from));
  plan.perm_crash_op = 60 + 10 * sweep_seed();
  vmpi::RunOptions ropts;
  ropts.faults = plan;
  ropts.capture_failure = true;
  vmpi::RunResult crashed = vmpi::run(
      p_from,
      [&](vmpi::Comm& world) {
        ckpt::Checkpointer ck(ck_dir, world.rank(), /*every=*/1,
                              &world.recorder());
        SummaOptions opts;
        opts.ckpt = &ck;
        Grid3D grid(world, 1);
        (void)mcl_cluster_distributed(grid, network, params, 0, opts);
      },
      ropts);
  ASSERT_TRUE(crashed.failed());
  EXPECT_EQ(crashed.failure->kind, "permanent_crash");

  // Relaunch on the survivor width with the SAME checkpoint directory: the
  // snapshot carries the full re-replicated iterate, so the 4-rank world
  // resumes whatever common iteration its ranks banked (old ranks 0..3
  // wrote files the new ranks 0..3 read natively). MCL iterates are
  // real-valued, so iterations computed on the 9-grid are not bit-bound to
  // the 4-grid's — the recovery guarantee here is structural: the job
  // finishes and finds the same partition as the fault-free reference.
  MclResult recovered;
  vmpi::RunResult resumed = vmpi::run(p_to, [&](vmpi::Comm& world) {
    ckpt::Checkpointer ck(ck_dir, world.rank(), /*every=*/1,
                          &world.recorder());
    SummaOptions opts;
    opts.ckpt = &ck;
    Grid3D grid(world, 1);
    MclResult r = mcl_cluster_distributed(grid, network, params, 0, opts);
    if (world.rank() == 0) recovered = std::move(r);
  });
  ASSERT_FALSE(resumed.failed());

  const auto canonical = [](const std::vector<Index>& cl) {
    std::map<Index, Index> remap;
    std::vector<Index> out;
    out.reserve(cl.size());
    for (const Index c : cl)
      out.push_back(remap.emplace(c, static_cast<Index>(remap.size()))
                        .first->second);
    return out;
  };
  EXPECT_EQ(recovered.num_clusters, base.num_clusters);
  EXPECT_EQ(canonical(recovered.cluster_of), canonical(base.cluster_of));
}

}  // namespace
}  // namespace casp
