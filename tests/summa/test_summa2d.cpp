// SUMMA2D (Algorithm 1) correctness: the gathered distributed product must
// equal the serial reference for random matrices across grid shapes, both
// kernel pipelines, and semirings. Runs with l = 1 so the layer is the
// whole grid and the 2D result is the final result.
#include <gtest/gtest.h>

#include <cstdint>

#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "sparse/serialize.hpp"
#include "summa/summa2d.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

// Every member is 8 bytes (the pipeline widened to 64 bits), so the struct
// has no padding: gtest names each case from the raw bytes of the
// parameter, and padding would leak stack garbage into the test names.
struct Summa2DCase {
  std::int64_t p;
  Index n;
  double density;
  std::int64_t pipeline;  ///< a Pipeline
};

/// This rank's whole block of D: piece 0 of a one-split summa2d call.
template <typename SR>
CscMat layer_block(Grid3D& grid, const CscMat& local_a, const CscMat& local_b,
                   const SummaOptions& opts = {}) {
  const std::vector<Index> whole{0, local_b.ncols()};
  const std::vector<Payload> pieces =
      summa2d<SR>(grid, local_a, local_b, opts, whole);
  EXPECT_EQ(pieces.size(), 1u);
  return unpack_csc_view(pieces.front()).materialize();
}

constexpr auto kHash = static_cast<std::int64_t>(Pipeline::kHash);
constexpr auto kHybrid = static_cast<std::int64_t>(Pipeline::kHybrid);

class Summa2DCorrectness : public ::testing::TestWithParam<Summa2DCase> {};

TEST_P(Summa2DCorrectness, MatchesSerialReference) {
  const auto param = GetParam();
  const CscMat a = testing::random_matrix(param.n, param.n, param.density, 7);
  const CscMat b = testing::random_matrix(param.n, param.n, param.density, 8);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);

  vmpi::run(static_cast<int>(param.p), [&](vmpi::Comm& world) {
    Grid3D grid(world, /*layers=*/1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    SummaOptions opts;
    opts.pipeline = static_cast<Pipeline>(param.pipeline);
    CscMat local_d = layer_block<PlusTimes>(grid, da.local, db.local, opts);

    DistMat3D dc;
    dc.local = std::move(local_d);
    dc.global_rows = a.nrows();
    dc.global_cols = b.ncols();
    dc.rows = da.rows;
    dc.cols = db.cols;  // with l=1 the 2D product is distributed like B cols
    CscMat gathered = gather_dist(grid, dc);
    testing::expect_mat_near(gathered, expected, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Summa2DCorrectness,
    ::testing::Values(
        Summa2DCase{1, 12, 3.0, kHash}, Summa2DCase{4, 20, 3.0, kHash},
        Summa2DCase{4, 21, 4.0, kHybrid}, Summa2DCase{9, 30, 3.0, kHybrid},
        Summa2DCase{9, 31, 2.0, kHybrid}, Summa2DCase{16, 37, 3.5, kHash},
        Summa2DCase{16, 40, 5.0, kHash},
        // denser than rows: guaranteed collisions and compression
        Summa2DCase{4, 8, 6.0, kHash}));

TEST(Summa2DRectangular, TallTimesWide) {
  const Index m = 26, k = 14, n = 33;
  const CscMat a = testing::random_matrix(m, k, 3.0, 9);
  const CscMat b = testing::random_matrix(k, n, 3.0, 10);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    CscMat local_d = layer_block<PlusTimes>(grid, da.local, db.local);
    DistMat3D dc{std::move(local_d), m, n, /*global_nnz=*/0, da.rows, db.cols};
    testing::expect_mat_near(gather_dist(grid, dc), expected);
  });
}

TEST(Summa2DSemiring, MinPlusShortestPathStep) {
  const Index n = 18;
  const CscMat a = testing::random_matrix(n, n, 3.0, 11);
  const CscMat expected = reference_multiply<MinPlus>(a, a);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    CscMat local_d = layer_block<MinPlus>(grid, da.local, db.local);
    DistMat3D dc{std::move(local_d), n, n, /*global_nnz=*/0, da.rows, db.cols};
    testing::expect_mat_near(gather_dist(grid, dc), expected);
  });
}

TEST(Summa2DPieces, SplitPiecesAreSlicesOfTheWholeBlock) {
  // Whoever writes D's pieces — the lone Local-Multiply at q = 1,
  // Merge-Layer at q = 4, either stage loop — each piece is byte for byte
  // the slice-then-pack of the whole block.
  const Index n = 30;
  const CscMat a = testing::random_matrix(n, n, 4.0, 13);
  for (const int p : {1, 4}) {
    for (const bool sparse_comm : {false, true}) {
      vmpi::run(p, [&](vmpi::Comm& world) {
        Grid3D grid(world, 1);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, a);
        SummaOptions opts;
        opts.sparse_comm = sparse_comm;
        const CscMat whole = layer_block<PlusTimes>(grid, da.local, db.local, opts);
        const Index w = db.local.ncols();
        const std::vector<Index> splits{0, w / 3, w / 3, w};
        testing::expect_wire_pieces(
            summa2d<PlusTimes>(grid, da.local, db.local, opts, splits), whole,
            splits);
      });
    }
  }
}

TEST(Summa2DTiming, RecordsAllStepTimes) {
  const Index n = 16;
  const CscMat a = testing::random_matrix(n, n, 3.0, 12);
  auto result = vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    (void)layer_block<PlusTimes>(grid, da.local, db.local);
  });
  EXPECT_GT(result.max_time(steps::kABcast), 0.0);
  EXPECT_GT(result.max_time(steps::kBBcast), 0.0);
  EXPECT_GT(result.max_time(steps::kLocalMultiply), 0.0);
  EXPECT_GT(result.max_time(steps::kMergeLayer), 0.0);
  // Traffic must be attributed to the bcast phases.
  const auto summary = result.traffic_summary();
  EXPECT_GT(summary.total_per_phase.at(steps::kABcast).bytes, 0u);
  EXPECT_GT(summary.total_per_phase.at(steps::kBBcast).bytes, 0u);
}

}  // namespace
}  // namespace casp
