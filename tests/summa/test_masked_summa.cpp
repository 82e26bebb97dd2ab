// Masked BatchedSUMMA3D and Symbolic3D: C = (A*B) .* pattern(M) through
// SummaOptions::mask, and the checkpoint identity of a masked product.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "grid/dist.hpp"
#include "kernels/spgemm.hpp"
#include "summa/batched.hpp"
#include "summa/stages.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

constexpr Index kN = 48;

bool in_pattern(const CscMat& m, Index row, Index col) {
  const auto rows = m.col_rowids(col);
  return std::binary_search(rows.begin(), rows.end(), row);
}

/// `m` restricted to the pattern of `mask` (sorted columns).
CscMat restrict_to(const CscMat& m, const CscMat& mask) {
  CscMat r = m;
  r.prune([&](Index row, Index col, Value) { return in_pattern(mask, row, col); });
  return r;
}

/// Real-valued operands of both signs; A's last rows are empty, so the
/// product never reaches them.
CscMat operand_a() {
  CscMat a = testing::random_matrix(kN, kN, 3.0, 71);
  a.prune([](Index row, Index, Value) { return row < kN - 3; });
  const std::span<Value> vals = a.vals_mutable();
  for (std::size_t k = 0; k < vals.size(); k += 3) vals[k] = -vals[k];
  return a;
}

CscMat operand_b() {
  CscMat b = testing::random_matrix(kN, kN, 3.0, 72);
  const std::span<Value> vals = b.vals_mutable();
  for (std::size_t k = 1; k < vals.size(); k += 4) vals[k] = -2.5 * vals[k];
  return b;
}

/// A random mask with every sixth column empty, plus entries in row
/// kN - 1, which the product never reaches.
CscMat make_mask() {
  const CscMat random = testing::random_matrix(kN, kN, 5.0, 73);
  TripleMat t(kN, kN);
  for (Index j = 0; j < kN; ++j) {
    if (j % 6 == 1) continue;
    for (Index r : random.col_rowids(j)) t.push_back(r, j, 1.0);
    if (j % 4 == 0) t.push_back(kN - 1, j, 1.0);
  }
  return CscMat::from_triples(std::move(t));
}

/// batched_summa3d of a*b on a p-rank, l-layer grid with `opts` (plus
/// `mask`), gathered to one matrix. `outside` counts piece entries off
/// the mask's pattern.
CscMat run_batched(const CscMat& a, const CscMat& b, int p, int l,
                   SummaOptions opts, const CscMat* mask,
                   std::atomic<Index>* outside) {
  opts.mask = mask;
  CscMat c;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    const BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, /*total_memory=*/0, opts,
        [&](CscMat&& piece, const BatchInfo& info) {
          if (mask == nullptr) return;
          for (Index j = 0; j < piece.ncols(); ++j)
            for (Index row : piece.col_rowids(j))
              if (!in_pattern(*mask, info.global_rows.start + row,
                              info.global_cols.start + j))
                ++*outside;
        });
    CscMat full = gather_dist(grid, r.c);
    if (world.rank() == 0) c = std::move(full);
  });
  return c;
}

struct GridShape {
  int p;
  int l;
};

class MaskedBatched : public ::testing::TestWithParam<GridShape> {};

TEST_P(MaskedBatched, CIsTheUnmaskedCRestrictedToTheMaskBitwise) {
  const auto [p, l] = GetParam();
  const CscMat a = operand_a();
  const CscMat b = operand_b();
  const CscMat mask = make_mask();
  for (const Pipeline pipeline : {Pipeline::kHash, Pipeline::kHybrid}) {
    for (const bool sparse : {false, true}) {
      // 0 lets Symbolic3D size the run: masked counts then give the hints
      // and, at l > 1, the fiber cut.
      for (const Index batches : {Index{0}, Index{1}, Index{5}}) {
        SCOPED_TRACE(::testing::Message()
                     << (pipeline == Pipeline::kHash ? "hash" : "hybrid")
                     << " sparse_comm=" << sparse << " batches=" << batches);
        SummaOptions opts;
        opts.pipeline = pipeline;
        opts.sparse_comm = sparse;
        opts.force_batches = batches;
        const CscMat full = run_batched(a, b, p, l, opts, nullptr, nullptr);
        std::atomic<Index> outside{0};
        const CscMat masked = run_batched(a, b, p, l, opts, &mask, &outside);
        EXPECT_EQ(outside.load(), 0);
        const CscMat expected = restrict_to(full, mask);
        ASSERT_GT(expected.nnz(), 0);
        ASSERT_LT(expected.nnz(), mask.nnz());
        EXPECT_EQ(masked.nrows(), kN);
        EXPECT_EQ(masked.ncols(), kN);
        testing::expect_same_arrays(masked, expected);
      }
    }
  }
}

TEST_P(MaskedBatched, Symbolic3DCountsThePerStageMaskedProducts) {
  const auto [p, l] = GetParam();
  const CscMat a = operand_a();
  const CscMat b = operand_b();
  const CscMat mask = make_mask();
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    SummaOptions opts;
    opts.mask = &mask;
    const SymbolicResult masked = symbolic3d(grid, da.local, db.local, 0, opts);
    const SymbolicResult plain = symbolic3d(grid, da.local, db.local, 0);

    // Each stage's masked numeric product, column by column.
    const CscMat block = product_block(grid, mask);
    const CscConstRef block_ref(block);
    std::vector<Index> stage_sum(static_cast<std::size_t>(db.local.ncols()), 0);
    StageStream stream(grid, da.local, db.local, /*sparse_comm=*/false, {});
    for (int s = 0; s < grid.q(); ++s) {
      auto [a_view, b_view] = stream.next(s);
      const CscMat stage = local_spgemm<PlusTimes>(
          a_view, b_view, SpGemmKind::kUnsortedHash, 1, {}, &block_ref);
      for (Index j = 0; j < stage.ncols(); ++j)
        stage_sum[static_cast<std::size_t>(j)] += stage.col_nnz(j);
    }
    EXPECT_EQ(masked.col_nnz, stage_sum);
    ASSERT_EQ(masked.col_nnz.size(), plain.col_nnz.size());
    for (std::size_t j = 0; j < masked.col_nnz.size(); ++j)
      EXPECT_LE(masked.col_nnz[j], plain.col_nnz[j]) << "column " << j;
    EXPECT_LT(masked.total_unmerged_nnz, plain.total_unmerged_nnz);
    EXPECT_EQ(masked.total_flops, plain.total_flops);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, MaskedBatched,
    ::testing::Values(GridShape{1, 1}, GridShape{4, 1}, GridShape{4, 4},
                      GridShape{8, 2}, GridShape{16, 4}),
    [](const ::testing::TestParamInfo<GridShape>& shape) {
      std::ostringstream name;
      name << 'p' << shape.param.p << 'l' << shape.param.l;
      return name.str();
    });

TEST(MaskedBatchedCheckpoint, MaskedAndUnmaskedProductsResumeOnlyTheirOwnPieces) {
  // Both products of the same operands checkpoint into one directory. Each
  // must resume from its own snapshots, never from the other's.
  const int p = 8, l = 2;
  const CscMat a = operand_a();
  const CscMat b = operand_b();
  const CscMat mask = make_mask();
  EXPECT_NE(summa_ckpt_job_id(kN, kN, kN, a.nnz(), b.nnz(), ""),
            summa_ckpt_job_id(kN, kN, kN, a.nnz(), b.nnz(), "", mask.nnz()));
  const std::string dir = ::testing::TempDir() + "/casp_masked_ckpt";
  std::filesystem::remove_all(dir);

  // One checkpointed run: returns C and the number of ranks that resumed.
  const auto run = [&](const CscMat* m, int& resumes) {
    CscMat c;
    std::atomic<int> resumed{0};
    vmpi::run(p, [&](vmpi::Comm& world) {
      ckpt::Checkpointer ck(dir, world.rank(), /*every=*/1, &world.recorder());
      Grid3D grid(world, l);
      SummaOptions opts;
      opts.force_batches = 3;
      opts.ckpt = &ck;
      opts.mask = m;
      const BatchedResult r = batched_summa3d<PlusTimes>(
          grid, distribute_a_style(grid, a), distribute_b_style(grid, b), 0,
          opts);
      const auto& counters = world.recorder().counters();
      const auto it = counters.find("ckpt.resumes");
      if (it != counters.end() && it->second > 0) ++resumed;
      CscMat full = gather_dist(grid, r.c);
      if (world.rank() == 0) c = std::move(full);
    });
    resumes = resumed.load();
    return c;
  };

  // The store keys file names, generation numbers and pruning by job, so
  // each product keeps its own snapshots however the runs interleave.
  int resumes = -1;
  const CscMat full = run(nullptr, resumes);
  EXPECT_EQ(resumes, 0);
  const CscMat masked = run(&mask, resumes);
  EXPECT_EQ(resumes, 0) << "the masked product resumed the unmasked one's";
  testing::expect_same_arrays(masked, restrict_to(full, mask));
  const CscMat masked_again = run(&mask, resumes);
  EXPECT_EQ(resumes, p) << "the masked product did not resume its own";
  testing::expect_same_arrays(masked_again, masked);
  const CscMat full_again = run(nullptr, resumes);
  EXPECT_EQ(resumes, p) << "the unmasked product did not resume its own";
  testing::expect_same_arrays(full_again, full);
  const CscMat full_resumed = run(nullptr, resumes);
  EXPECT_EQ(resumes, p) << "the unmasked product did not resume its own";
  testing::expect_same_arrays(full_resumed, full);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace casp
