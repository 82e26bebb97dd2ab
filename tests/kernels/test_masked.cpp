// Masked SpGEMM: C = (A*B) .* pattern(mask).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "kernels/reference.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/symbolic.hpp"
#include "sparse/serialize.hpp"
#include "test_util.hpp"

namespace casp {
namespace {

/// Reference: full product filtered to the mask's pattern.
CscMat masked_reference(const CscMat& a, const CscMat& b, const CscMat& mask) {
  CscMat full = reference_multiply<PlusTimes>(a, b);
  std::set<std::pair<Index, Index>> allowed;
  for (Index j = 0; j < mask.ncols(); ++j)
    for (Index r : mask.col_rowids(j)) allowed.insert({r, j});
  full.prune([&](Index row, Index col, Value) {
    return allowed.count({row, col}) > 0;
  });
  return full;
}

TEST(MaskedSpGemm, MatchesFilteredFullProduct) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CscMat a = testing::random_matrix(40, 30, 3.0, 180 + seed);
    const CscMat b = testing::random_matrix(30, 35, 3.0, 190 + seed);
    const CscMat mask = testing::random_matrix(40, 35, 6.0, 200 + seed);
    const CscMat expected = masked_reference(a, b, mask);
    const CscMat got = local_spgemm_masked<PlusTimes>(a, b, mask);
    testing::expect_mat_near(got, expected, 1e-9);
    EXPECT_TRUE(got.columns_sorted());  // inherits mask order
    EXPECT_LE(got.nnz(), mask.nnz());
  }
}

TEST(MaskedSpGemm, SelfMaskIsTheTriangleCountingPattern) {
  // mask = adjacency, product = L*U: the values at masked positions count
  // the triangles through each edge.
  const CscMat a = testing::random_matrix(30, 30, 4.0, 210);
  const CscMat mask = a;
  const CscMat got = local_spgemm_masked<PlusTimes>(a, a, mask);
  const CscMat expected = masked_reference(a, a, mask);
  testing::expect_mat_near(got, expected, 1e-9);
}

TEST(MaskedSpGemm, EmptyMaskYieldsEmptyOutput) {
  const CscMat a = testing::random_matrix(20, 20, 3.0, 211);
  const CscMat mask(20, 20);
  EXPECT_EQ(local_spgemm_masked<PlusTimes>(a, a, mask).nnz(), 0);
}

TEST(MaskedSpGemm, FullMaskEqualsUnmaskedProduct) {
  const Index n = 18;
  TripleMat t(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) t.push_back(i, j, 1.0);
  const CscMat mask = CscMat::from_triples(std::move(t));
  const CscMat a = testing::random_matrix(n, n, 3.0, 212);
  testing::expect_mat_near(local_spgemm_masked<PlusTimes>(a, a, mask),
                           reference_multiply<PlusTimes>(a, a), 1e-9);
}

TEST(MaskedSpGemm, ShapeMismatchThrows) {
  const CscMat a = testing::random_matrix(10, 10, 2.0, 213);
  const CscMat bad_mask = testing::random_matrix(9, 10, 2.0, 214);
  EXPECT_THROW(local_spgemm_masked<PlusTimes>(a, a, bad_mask),
               std::logic_error);
}

TEST(MaskedSpGemm, MinPlusSemiring) {
  const CscMat a = testing::random_matrix(25, 25, 3.0, 215);
  const CscMat mask = testing::random_matrix(25, 25, 5.0, 216);
  CscMat full = reference_multiply<MinPlus>(a, a);
  std::set<std::pair<Index, Index>> allowed;
  for (Index j = 0; j < mask.ncols(); ++j)
    for (Index r : mask.col_rowids(j)) allowed.insert({r, j});
  full.prune([&](Index row, Index col, Value) {
    return allowed.count({row, col}) > 0;
  });
  testing::expect_mat_near(local_spgemm_masked<MinPlus>(a, a, mask), full,
                           1e-12);
}

/// A mask with empty columns and rows the product never reaches (a's
/// last rows are empty), and operands of both signs.
struct MaskedCase {
  CscMat a;
  CscMat b;
  CscMat mask;
};
MaskedCase masked_case() {
  MaskedCase c{testing::random_matrix(40, 30, 3.0, 220),
               testing::random_matrix(30, 35, 3.0, 221),
               testing::random_matrix(40, 35, 6.0, 222)};
  c.a.prune([](Index row, Index, Value) { return row < 36; });
  for (std::size_t k = 0; k < c.a.vals().size(); k += 3)
    c.a.vals_mutable()[k] = -c.a.vals()[k];
  c.mask.prune([](Index row, Index col, Value) {
    return col % 5 != 2 || row >= 36;
  });
  return c;
}

TEST(MaskedSpGemm, EveryKindIsTheUnmaskedProductRestrictedBitwise) {
  const MaskedCase c = masked_case();
  CscMat expected = local_spgemm<PlusTimes>(c.a, c.b, SpGemmKind::kSortedHash);
  expected.prune([&](Index row, Index col, Value) {
    const auto rows = c.mask.col_rowids(col);
    return std::binary_search(rows.begin(), rows.end(), row);
  });
  const CscConstRef mask(c.mask);
  const std::vector<Index> exact = symbolic_column_nnz(c.a, c.b, &mask);
  const std::vector<Index> short_hints(exact.size(), 0);
  for (const SpGemmKind kind :
       {SpGemmKind::kUnsortedHash, SpGemmKind::kSortedHash, SpGemmKind::kHeap,
        SpGemmKind::kHybrid, SpGemmKind::kSpa}) {
    SCOPED_TRACE(to_string(kind));
    for (const std::vector<Index>* hints :
         {static_cast<const std::vector<Index>*>(nullptr), &exact, &short_hints}) {
      const std::span<const Index> h =
          hints != nullptr ? std::span<const Index>(*hints) : std::span<const Index>();
      const CscMat got = local_spgemm<PlusTimes>(c.a, c.b, kind, 1, h, &mask);
      testing::expect_same_arrays(got, expected);
      const std::vector<Index> splits = {0, 7, 7, 35};
      testing::expect_wire_pieces(
          local_spgemm_wire<PlusTimes>(c.a, c.b, splits, kind, 1, h, &mask),
          got, splits);
    }
  }
}

TEST(MaskedSymbolic, CountsTheMaskedProductsColumns) {
  const MaskedCase c = masked_case();
  const CscConstRef mask(c.mask);
  const CscMat got = local_spgemm_masked<PlusTimes>(c.a, c.b, c.mask);
  std::vector<Index> want(static_cast<std::size_t>(got.ncols()));
  for (Index j = 0; j < got.ncols(); ++j)
    want[static_cast<std::size_t>(j)] = got.col_nnz(j);
  EXPECT_EQ(symbolic_column_nnz(c.a, c.b, &mask), want);
  // The mask's unreached rows and empty columns keep the counts below it.
  const std::vector<Index> plain = symbolic_column_nnz(c.a, c.b);
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_LE(want[j], plain[j]);
    EXPECT_LE(want[j], c.mask.col_nnz(static_cast<Index>(j)));
  }
  EXPECT_LT(got.nnz(), c.mask.nnz());
}

}  // namespace
}  // namespace casp
