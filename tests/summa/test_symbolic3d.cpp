// Symbolic3D (Algorithm 3): the per-process unmerged counts must match
// what SUMMA2D actually materializes; the chosen b must be feasible and
// minimal under Eq. 2's accounting.
#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace casp
