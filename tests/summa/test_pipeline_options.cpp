// The full distributed pipeline under every kernel configuration and
// semiring: whatever the options, the math must not change.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>

#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

struct OptionCase {
  SpGemmKind local_kind;
  MergeKind merge_kind;
};

class PipelineOptions : public ::testing::TestWithParam<OptionCase> {};

TEST_P(PipelineOptions, BatchedResultIndependentOfKernels) {
  const auto [local_kind, merge_kind] = GetParam();
  const Index n = 26;
  const CscMat a = testing::random_matrix(n, n, 3.5, 150);
  const CscMat b = testing::random_matrix(n, n, 3.5, 151);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);
  vmpi::run(8, [&, local_kind = local_kind,
                merge_kind = merge_kind](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    SummaOptions opts;
    opts.local_kind = local_kind;
    opts.merge_kind = merge_kind;
    opts.force_batches = 3;
    const BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    KernelMatrix, PipelineOptions,
    ::testing::Values(
        OptionCase{SpGemmKind::kUnsortedHash, MergeKind::kUnsortedHash},
        OptionCase{SpGemmKind::kUnsortedHash, MergeKind::kSortedHeap},
        OptionCase{SpGemmKind::kSortedHash, MergeKind::kUnsortedHash},
        OptionCase{SpGemmKind::kSortedHash, MergeKind::kSortedHeap},
        OptionCase{SpGemmKind::kHeap, MergeKind::kSortedHeap},
        OptionCase{SpGemmKind::kHybrid, MergeKind::kSortedHeap},
        OptionCase{SpGemmKind::kSpa, MergeKind::kUnsortedHash}));

TEST(PipelineOptions, SortedHeapMergeHandsEveryBatchStrictlyAscendingColumns) {
  // kSortedHeap merges sorted runs. With the unsorted hash kernel selected
  // for Local-Multiply, the pipeline must still feed it sorted columns, or
  // Merge-Layer emits duplicate rows. Read each batch's piece as the
  // callback sees it, before any gather could repair it. q = 1 grids send
  // Local-Multiply's pieces straight to Merge-Fiber; q > 1 through
  // Merge-Layer.
  const Index n = 30;
  const CscMat a = testing::random_matrix(n, n, 4.0, 157);
  const CscMat b = testing::random_matrix(n, n, 4.0, 158);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);
  for (const auto& [p, l] : {std::pair{4, 1}, std::pair{4, 4},
                             std::pair{8, 2}, std::pair{1, 1}}) {
    SCOPED_TRACE("p=" + std::to_string(p) + " l=" + std::to_string(l));
    std::atomic<Index> nnz{0};
    std::atomic<int> unsorted_columns{0};
    vmpi::run(p, [&, l = l](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, b);
      SummaOptions opts;
      opts.local_kind = SpGemmKind::kUnsortedHash;
      opts.merge_kind = MergeKind::kSortedHeap;
      opts.force_batches = 3;
      batched_summa3d<PlusTimes>(
          grid, da, db, 0, opts,
          [&](CscMat&& piece, const BatchInfo&) {
            for (Index j = 0; j < piece.ncols(); ++j) {
              const auto rows = piece.col_rowids(j);
              for (std::size_t k = 1; k < rows.size(); ++k) {
                if (rows[k - 1] >= rows[k]) {
                  ++unsorted_columns;
                  break;
                }
              }
            }
            nnz += piece.nnz();
          },
          /*keep_output=*/false);
    });
    EXPECT_EQ(unsorted_columns.load(), 0);
    EXPECT_EQ(nnz.load(), expected.nnz());
  }
}

TEST(PipelineOptions, UnsortedFinalOutputWhenSortDisabled) {
  const Index n = 30;
  const CscMat a = testing::random_matrix(n, n, 4.0, 152);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 4);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.sort_final = false;  // caller wants raw unsorted output
    BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    // Values still correct after an explicit sort.
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-9);
  });
}

TEST(PipelineOptions, MultithreadedRanksMatchSingleThreaded) {
  const Index n = 32;
  const CscMat a = testing::random_matrix(n, n, 4.0, 153);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.threads = 3;  // OpenMP inside each rank
    const BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-9);
  });
}

class BatchedSemirings3D : public ::testing::TestWithParam<int> {};

TEST_P(BatchedSemirings3D, MinPlusThroughTheWholePipeline) {
  const Index n = 22;
  const CscMat a = testing::random_matrix(n, n, 3.0, 154);
  const CscMat expected = reference_multiply<MinPlus>(a, a);
  const int l = GetParam();
  vmpi::run(16, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.force_batches = 2;
    const BatchedResult r = batched_summa3d<MinPlus>(grid, da, db, 0, opts);
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-12);
  });
}

TEST_P(BatchedSemirings3D, MaxMinThroughTheWholePipeline) {
  const Index n = 22;
  const CscMat a = testing::random_matrix(n, n, 3.0, 155);
  const CscMat expected = reference_multiply<MaxMin>(a, a);
  const int l = GetParam();
  vmpi::run(16, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.force_batches = 3;
    const BatchedResult r = batched_summa3d<MaxMin>(grid, da, db, 0, opts);
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-12);
  });
}

TEST_P(BatchedSemirings3D, OrAndThroughTheWholePipeline) {
  const Index n = 22;
  CscMat a = testing::random_matrix(n, n, 3.0, 156);
  for (Value& v : a.vals_mutable()) v = 1.0;
  const CscMat expected = reference_multiply<OrAnd>(a, a);
  const int l = GetParam();
  vmpi::run(16, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const BatchedResult r = batched_summa3d<OrAnd>(grid, da, db, 0, {});
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Layers, BatchedSemirings3D, ::testing::Values(1, 4));

}  // namespace
}  // namespace casp
