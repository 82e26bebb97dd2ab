// SUMMA3D (Algorithm 2) correctness across (p, l) shapes: the result must
// land A-style distributed and equal the serial product.
#include <gtest/gtest.h>

#include "common/math.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "sparse/serialize.hpp"
#include "summa/summa3d.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

struct Summa3DCase {
  int p;
  int l;
  Index n;
  double density;
};

class Summa3DCorrectness : public ::testing::TestWithParam<Summa3DCase> {};

TEST_P(Summa3DCorrectness, MatchesSerialReference) {
  const auto [p, l, n, density] = GetParam();
  const CscMat a = testing::random_matrix(n, n, density, 21);
  const CscMat b = testing::random_matrix(n, n, density, 22);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);

  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    CscMat local_c = summa3d<PlusTimes>(grid, da.local, db.local, {});

    // The merged fiber piece is the A-style block of C.
    DistMat3D dc;
    dc.local = std::move(local_c);
    dc.global_rows = a.nrows();
    dc.global_cols = b.ncols();
    dc.rows = a_style_row_range(grid, a.nrows());
    dc.cols = a_style_col_range(grid, b.ncols());
    EXPECT_EQ(dc.local.nrows(), dc.rows.count);
    EXPECT_EQ(dc.local.ncols(), dc.cols.count);
    testing::expect_mat_near(gather_dist(grid, dc), expected, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Summa3DCorrectness,
    ::testing::Values(Summa3DCase{1, 1, 14, 3.0}, Summa3DCase{2, 2, 15, 3.0},
                      Summa3DCase{4, 4, 18, 3.0}, Summa3DCase{8, 2, 25, 3.0},
                      Summa3DCase{16, 4, 33, 3.0}, Summa3DCase{16, 16, 19, 2.0},
                      Summa3DCase{12, 3, 27, 4.0}, Summa3DCase{18, 2, 35, 3.0},
                      // l > n/q slices: many empty layer slices
                      Summa3DCase{16, 4, 7, 2.0}));

TEST(Summa3DFinalSort, OutputColumnsAreSorted) {
  const Index n = 24;
  const CscMat a = testing::random_matrix(n, n, 4.0, 23);
  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;  // defaults: unsorted kernels + one final sort
    CscMat local_c = summa3d<PlusTimes>(grid, da.local, db.local, opts);
    EXPECT_TRUE(local_c.columns_sorted());
  });
}

TEST(Summa3DSemiring, OrAndReachability) {
  const Index n = 20;
  CscMat a = testing::random_matrix(n, n, 3.0, 24);
  for (Value& v : a.vals_mutable()) v = 1.0;
  const CscMat expected = reference_multiply<OrAnd>(a, a);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 4);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    CscMat local_c = summa3d<OrAnd>(grid, da.local, db.local, {});
    DistMat3D dc{std::move(local_c), n, n, /*global_nnz=*/0,
                 a_style_row_range(grid, n), a_style_col_range(grid, n)};
    testing::expect_mat_near(gather_dist(grid, dc), expected);
  });
}

TEST(Summa3DZeroCopy, FiberExchangeAndMergeNeverDeepCopy) {
  // The ROADMAP claim behind the refcounted-payload transport: the fiber
  // stage — D written as wire pieces, AllToAll-Fiber (forwarded handles),
  // Merge-Fiber (CscViews borrowing the wire buffers) — performs zero
  // Payload deep copies. The job runs summa3d itself on a 1x1x4 grid: each
  // layer is one rank, so its stage broadcasts are self-sends and the work
  // is the lone Local-Multiply writing D's pieces, the exchange and the
  // merge. Setting up the grid does make a fixed number of small transport
  // copies, so the same job without the multiply is the baseline and the
  // two counts must be equal. Any regression — a copy_of on the exchange
  // path, a release_or_copy deserializing a received piece — fails this
  // test.
  const int p = 4;
  const Index n = 32;
  const Index inner = 8;

  auto copies = [&](bool multiply) {
    const std::uint64_t before = Payload::deep_copies();
    vmpi::run(p, [&](vmpi::Comm& world) {
      Grid3D grid(world, p);
      const auto seed = 50 + static_cast<std::uint64_t>(2 * world.rank());
      // My layer's A column slice and B row slice.
      const CscMat a = testing::random_matrix(n, inner, 3.0, seed);
      const CscMat b = testing::random_matrix(inner, n, 3.0, seed + 1);
      if (!multiply) return;
      const CscMat merged = summa3d<PlusTimes>(grid, a, b, {});
      // Sanity: the merge really consumed the layers' pieces.
      EXPECT_EQ(merged.ncols(), part_low(world.rank() + 1, p, n) -
                                    part_low(world.rank(), p, n));
      EXPECT_GT(merged.nnz(), 0);
    });
    return Payload::deep_copies() - before;
  };
  const std::uint64_t setup = copies(false);
  EXPECT_EQ(copies(true), setup)
      << "the fiber exchange / Merge-Fiber path deep-copied a payload";
}

TEST(Summa3DSplits, DescendingSplitsAreRejected) {
  // Caller splits size the wire images, so every rank checks they ascend
  // before the layer multiplies (and before any message is sent).
  const Index n = 16;
  const CscMat a = testing::random_matrix(n, n, 3.0, 26);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 4);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const Index w = db.local.ncols();
    const std::vector<Index> descending{0, w - 1, 1, w - 1, w};
    EXPECT_THROW((void)summa3d<PlusTimes>(grid, da.local, db.local, {},
                                          descending),
                 std::logic_error);
  });
}

TEST(Summa3DTraffic, FiberTrafficOnlyWhenLayered) {
  const Index n = 24;
  const CscMat a = testing::random_matrix(n, n, 3.0, 25);
  auto run_with_layers = [&](int p, int l) {
    return vmpi::run(p, [&, l](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      (void)summa3d<PlusTimes>(grid, da.local, db.local, {});
    });
  };
  const auto flat = run_with_layers(4, 1).traffic_summary();
  const auto layered = run_with_layers(4, 4).traffic_summary();
  // l=1: the fiber all-to-all moves nothing between ranks (self copy only).
  const auto it = flat.total_per_phase.find(steps::kAllToAllFiber);
  if (it != flat.total_per_phase.end()) {
    EXPECT_EQ(it->second.bytes, 0u);
  }
  EXPECT_GT(layered.total_per_phase.at(steps::kAllToAllFiber).bytes, 0u);
}

}  // namespace
}  // namespace casp
