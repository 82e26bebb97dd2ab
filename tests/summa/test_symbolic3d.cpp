// Symbolic3D (Algorithm 3): the per-process unmerged counts must match
// what SUMMA2D actually materializes; the chosen b must be feasible and
// minimal under Eq. 2's accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "gen/rmat.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "sparse/stats.hpp"
#include "summa/batched.hpp"
#include "summa/summa2d.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

TEST(Symbolic3D, TotalFlopsMatchSerialCount) {
  const Index n = 28;
  const CscMat a = testing::random_matrix(n, n, 3.0, 41);
  const CscMat b = testing::random_matrix(n, n, 3.0, 42);
  const Index serial_flops = multiply_flops(a, b);
  for (const auto& [p, l] : std::vector<std::pair<int, int>>{
           {1, 1}, {4, 1}, {4, 4}, {8, 2}, {16, 4}}) {
    vmpi::run(p, [&, l = l](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, b);
      const SymbolicResult sym = symbolic3d(grid, da.local, db.local, 0);
      EXPECT_EQ(sym.total_flops, serial_flops)
          << "p=" << p << " l=" << l;
      EXPECT_EQ(sym.batches, 1);
    });
  }
}

TEST(Symbolic3D, UnmergedCountMatchesActualStageOutputs) {
  const Index n = 26;
  const CscMat a = testing::random_matrix(n, n, 4.0, 43);
  const CscMat b = testing::random_matrix(n, n, 4.0, 44);
  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    const SymbolicResult sym = symbolic3d(grid, da.local, db.local, 0);

    // Reproduce what summa2d stores: per-stage merged products. The memory
    // tracker's peak includes exactly those charges.
    MemoryTracker tracker(0);
    SummaOptions opts;
    opts.memory = &tracker;
    const std::vector<Index> whole{0, db.local.ncols()};
    (void)summa2d<PlusTimes>(grid, da.local, db.local, opts, whole);
    const Index my_unmerged =
        static_cast<Index>(tracker.peak() / kBytesPerNonzero);
    const Index max_unmerged = world.allreduce_max<Index>(my_unmerged);
    EXPECT_EQ(max_unmerged, sym.max_nnz_c);
  });
}

TEST(Symbolic3D, UnmergedAtLeastFinalAndAtMostFlops) {
  // Eq. 1: flops >= sum_k nnz(D^(k)) >= nnz(C).
  const Index n = 30;
  const CscMat a = testing::random_matrix(n, n, 5.0, 45);
  const CscMat c = reference_multiply<PlusTimes>(a, a);
  const Index flops = multiply_flops(a, a);
  vmpi::run(16, [&](vmpi::Comm& world) {
    Grid3D grid(world, 4);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const SymbolicResult sym = symbolic3d(grid, da.local, db.local, 0);
    EXPECT_GE(sym.total_unmerged_nnz, c.nnz());
    EXPECT_LE(sym.total_unmerged_nnz, flops);
  });
}

TEST(Symbolic3D, BatchCountFollowsEq2) {
  const Index n = 36;
  const CscMat a = testing::random_matrix(n, n, 5.0, 46);
  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const SymbolicResult base = symbolic3d(grid, da.local, db.local, 0);

    const double r = static_cast<double>(kBytesPerNonzero);
    const double inputs =
        r * static_cast<double>(base.max_nnz_a + base.max_nnz_b);
    // Sweep budgets; recompute expected b with Eq. 2 arithmetic.
    for (double frac : {1.0, 0.5, 0.25, 0.1}) {
      const double per_rank =
          inputs + frac * r * static_cast<double>(base.max_nnz_c);
      const Bytes total =
          static_cast<Bytes>(per_rank * static_cast<double>(world.size()));
      const SymbolicResult sym = symbolic3d(grid, da.local, db.local, total);
      const double denom =
          static_cast<double>(total) / static_cast<double>(world.size()) -
          inputs;
      const Index expected = std::max<Index>(
          1, static_cast<Index>(
                 std::ceil(r * static_cast<double>(base.max_nnz_c) / denom)));
      EXPECT_EQ(sym.batches, expected) << "frac=" << frac;
    }
  });
}

TEST(Symbolic3D, MoreMemoryNeverMoreBatches) {
  const Index n = 32;
  const CscMat a = testing::random_matrix(n, n, 5.0, 47);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const SymbolicResult base = symbolic3d(grid, da.local, db.local, 0);
    const Bytes inputs = static_cast<Bytes>(base.max_nnz_a + base.max_nnz_b) *
                         kBytesPerNonzero;
    Index prev = std::numeric_limits<Index>::max();
    for (Bytes extra = 64; extra <= 16384; extra *= 2) {
      const Bytes total = static_cast<Bytes>(world.size()) * (inputs + extra);
      const SymbolicResult sym = symbolic3d(grid, da.local, db.local, total);
      EXPECT_LE(sym.batches, prev) << "extra=" << extra;
      prev = sym.batches;
    }
  });
}

// Symbolic3D and SUMMA2D share one stage schedule (summa/stages.hpp). The
// sparse A exchange changes only how A travels, so every count is the same
// either way, and the symbolic pass keeps all of its traffic and time
// under its one Symbolic span.
TEST(Symbolic3D, SameCountsWithAndWithoutSparseExchange) {
  RmatParams rp;
  rp.scale = 6;
  rp.edge_factor = 4.0;
  rp.seed = 916;
  const CscMat a = generate_rmat(rp);
  for (const auto& [p, l] : std::vector<std::pair<int, int>>{
           {1, 1}, {2, 2}, {4, 1}, {4, 4}, {8, 2}, {16, 4}}) {
    SCOPED_TRACE("p=" + std::to_string(p) + " l=" + std::to_string(l));
    std::vector<SymbolicResult> out;
    auto run_symbolic = [&, p = p, l = l](bool sparse_comm, Bytes memory) {
      out.assign(static_cast<std::size_t>(p), {});
      return vmpi::run(p, [&, l, sparse_comm, memory](vmpi::Comm& world) {
        Grid3D grid(world, l);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, a);
        SummaOptions opts;
        opts.sparse_comm = sparse_comm;
        out[static_cast<std::size_t>(world.rank())] =
            symbolic3d(grid, da.local, db.local, memory, opts);
      });
    };

    // A budget that leaves room for about a third of the unmerged output,
    // so Eq. 2 picks b > 1.
    run_symbolic(false, 0);
    const SymbolicResult base = out.front();
    const Bytes memory =
        static_cast<Bytes>(p) * kBytesPerNonzero *
        (base.max_nnz_a + base.max_nnz_b + (base.max_nnz_c + 2) / 3);

    const vmpi::RunResult dense_run = run_symbolic(false, memory);
    const std::vector<SymbolicResult> dense = out;
    const vmpi::RunResult sparse_run = run_symbolic(true, memory);
    const std::vector<SymbolicResult>& sparse = out;
    EXPECT_GT(dense.front().batches, 1);
    for (int r = 0; r < p; ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      const SymbolicResult& d = dense[static_cast<std::size_t>(r)];
      const SymbolicResult& s = sparse[static_cast<std::size_t>(r)];
      EXPECT_EQ(s.col_nnz, d.col_nnz);
      EXPECT_EQ(s.max_nnz_a, d.max_nnz_a);
      EXPECT_EQ(s.max_nnz_b, d.max_nnz_b);
      EXPECT_EQ(s.max_nnz_c, d.max_nnz_c);
      EXPECT_EQ(s.total_unmerged_nnz, d.total_unmerged_nnz);
      EXPECT_EQ(s.total_flops, d.total_flops);
      EXPECT_EQ(s.batches, d.batches);
    }

    for (const vmpi::RunResult* run : {&dense_run, &sparse_run}) {
      for (const obs::Recorder& rec : run->recorders) {
        for (const char* bcast : {steps::kABcast, steps::kBBcast}) {
          EXPECT_EQ(rec.traffic().per_phase().count(bcast), 0u) << bcast;
          EXPECT_EQ(rec.times().all().count(bcast), 0u) << bcast;
        }
        const auto& events = rec.events();
        EXPECT_EQ(std::count_if(events.begin(), events.end(),
                                [](const obs::TimelineEvent& ev) {
                                  return ev.kind ==
                                             obs::TimelineEvent::Kind::kBegin &&
                                         ev.name == steps::kSymbolic;
                                }),
                  1);
      }
    }
  }
}

}  // namespace
}  // namespace casp
