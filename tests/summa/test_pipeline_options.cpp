// The full distributed pipeline under both kernel pipelines and every
// semiring: whatever the options, the math must not change.
#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <string>
#include <utility>

#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "summa/batched.hpp"
#include "svc/jobspec.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {

/// Case names read "hash" / "hybrid", not the enum's raw bytes.
static void PrintTo(Pipeline pipeline, std::ostream* os) {
  *os << svc::to_string(pipeline);
}

namespace {

class PipelineOptions : public ::testing::TestWithParam<Pipeline> {};

TEST_P(PipelineOptions, BatchedResultIndependentOfKernels) {
  const Pipeline pipeline = GetParam();
  const Index n = 26;
  const CscMat a = testing::random_matrix(n, n, 3.5, 150);
  const CscMat b = testing::random_matrix(n, n, 3.5, 151);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);
  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    SummaOptions opts;
    opts.pipeline = pipeline;
    opts.force_batches = 3;
    const BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(KernelMatrix, PipelineOptions,
                         ::testing::Values(Pipeline::kHash, Pipeline::kHybrid));

TEST(PipelineOptions, SortedHeapMergeHandsEveryBatchStrictlyAscendingColumns) {
  // Every pipeline hands the callback sorted columns: the hash pipeline's
  // Merge-Fiber emits the final sort's order, and the hybrid pipeline's
  // heap merges take and give sorted runs (Merge-Layer would emit
  // duplicate rows from unsorted ones). Read each batch's piece as the
  // callback sees it, before any gather could repair it. q = 1 grids send
  // Local-Multiply's pieces straight to Merge-Fiber; q > 1 through
  // Merge-Layer.
  const Index n = 30;
  const CscMat a = testing::random_matrix(n, n, 4.0, 157);
  const CscMat b = testing::random_matrix(n, n, 4.0, 158);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);
  for (const Pipeline pipeline : {Pipeline::kHash, Pipeline::kHybrid}) {
    for (const auto& [p, l] : {std::pair{4, 1}, std::pair{4, 4},
                               std::pair{8, 2}, std::pair{1, 1}}) {
      SCOPED_TRACE(::testing::Message() << ::testing::PrintToString(pipeline)
                                        << " p=" << p << " l=" << l);
      std::atomic<Index> nnz{0};
      std::atomic<int> unsorted_columns{0};
      vmpi::run(p, [&, l = l](vmpi::Comm& world) {
        Grid3D grid(world, l);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, b);
        SummaOptions opts;
        opts.pipeline = pipeline;
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
