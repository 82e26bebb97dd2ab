#include <gtest/gtest.h>

#include "sparse/csc_mat.hpp"
#include "test_util.hpp"

namespace casp {
namespace {

TEST(CscMat, FromTriplesRoundTrip) {
  TripleMat t(5, 4);
  t.push_back(1, 0, 1.5);
  t.push_back(4, 0, 2.5);
  t.push_back(0, 2, 3.5);
  t.push_back(3, 3, 4.5);
  TripleMat copy = t;
  copy.canonicalize();
  const CscMat m = CscMat::from_triples(std::move(t));
  EXPECT_EQ(m.nrows(), 5);
  EXPECT_EQ(m.ncols(), 4);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.col_nnz(0), 2);
  EXPECT_EQ(m.col_nnz(1), 0);
  EXPECT_TRUE(m.columns_sorted());
  EXPECT_EQ(m.to_triples(), copy);
}

class CscRandomRoundTrip
    : public ::testing::TestWithParam<std::tuple<Index, Index, double>> {};

TEST_P(CscRandomRoundTrip, TriplesRoundTrip) {
  const auto [rows, cols, d] = GetParam();
  const CscMat m = testing::random_matrix(rows, cols, d, 99);
  const CscMat back = CscMat::from_triples(m.to_triples());
  EXPECT_EQ(m, back);
}

TEST_P(CscRandomRoundTrip, TransposeIsInvolution) {
  const auto [rows, cols, d] = GetParam();
  const CscMat m = testing::random_matrix(rows, cols, d, 100);
  const CscMat t = m.transpose();
  EXPECT_EQ(t.nrows(), m.ncols());
  EXPECT_EQ(t.ncols(), m.nrows());
  EXPECT_TRUE(t.columns_sorted());
  testing::expect_mat_near(t.transpose(), m);
}

TEST_P(CscRandomRoundTrip, SliceConcatIdentity) {
  const auto [rows, cols, d] = GetParam();
  const CscMat m = testing::random_matrix(rows, cols, d, 101);
  if (cols < 3) return;
  const Index c1 = cols / 3, c2 = 2 * cols / 3;
  const CscMat parts[] = {m.slice_cols(0, c1), m.slice_cols(c1, c2),
                          m.slice_cols(c2, cols)};
  const CscMat joined = CscMat::concat_cols(parts);
  EXPECT_EQ(joined, m);
}

TEST_P(CscRandomRoundTrip, SelectRangesEqualsSliceConcat) {
  const auto [rows, cols, d] = GetParam();
  const CscMat m = testing::random_matrix(rows, cols, d, 102);
  if (cols < 5) return;
  const std::pair<Index, Index> ranges[] = {
      {0, cols / 5}, {2 * cols / 5, 3 * cols / 5}, {4 * cols / 5, cols}};
  const CscMat picked = m.select_col_ranges(ranges);
  const CscMat parts[] = {m.slice_cols(ranges[0].first, ranges[0].second),
                          m.slice_cols(ranges[1].first, ranges[1].second),
                          m.slice_cols(ranges[2].first, ranges[2].second)};
  EXPECT_EQ(picked, CscMat::concat_cols(parts));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CscRandomRoundTrip,
    ::testing::Values(std::tuple<Index, Index, double>{1, 1, 0.5},
                      std::tuple<Index, Index, double>{10, 10, 2.0},
                      std::tuple<Index, Index, double>{37, 11, 3.0},
                      std::tuple<Index, Index, double>{11, 37, 3.0},
                      std::tuple<Index, Index, double>{100, 100, 5.0},
                      std::tuple<Index, Index, double>{64, 1, 8.0},
                      std::tuple<Index, Index, double>{1, 64, 0.8}));

TEST(CscMat, SliceRowsReindexesAndFilters) {
  const CscMat m = testing::random_matrix(30, 20, 3.0, 106);
  const CscMat top = m.slice_rows(0, 12);
  const CscMat middle = m.slice_rows(12, 25);
  const CscMat bottom = m.slice_rows(25, 30);
  EXPECT_EQ(top.nrows(), 12);
  EXPECT_EQ(middle.nrows(), 13);
  EXPECT_EQ(top.nnz() + middle.nnz() + bottom.nnz(), m.nnz());
  // Row ids are reindexed into the slice.
  for (Index r : middle.rowids()) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 13);
  }
  // Stacking the slices back (with offsets) restores the matrix.
  TripleMat rebuilt(30, 20);
  for (const auto& [slice, base] :
       std::vector<std::pair<const CscMat*, Index>>{
           {&top, 0}, {&middle, 12}, {&bottom, 25}}) {
    for (Index j = 0; j < slice->ncols(); ++j) {
      const auto rows = slice->col_rowids(j);
      const auto vals = slice->col_vals(j);
      for (std::size_t k = 0; k < rows.size(); ++k)
        rebuilt.push_back(rows[k] + base, j, vals[k]);
    }
  }
  testing::expect_mat_near(CscMat::from_triples(std::move(rebuilt)), m);
}

TEST(CscMat, SliceRowsEmptyAndFull) {
  const CscMat m = testing::random_matrix(10, 10, 2.0, 107);
  EXPECT_EQ(m.slice_rows(3, 3).nnz(), 0);
  testing::expect_mat_near(m.slice_rows(0, 10), m);
}

TEST(CscMat, SortColumnsEstablishesOrderAndPreservesPairs) {
  // Build a deliberately unsorted matrix through raw arrays.
  CscMat m(4, 2, {0, 3, 4}, {3, 0, 2, 1}, {30.0, 0.5, 20.0, 10.0});
  EXPECT_FALSE(m.columns_sorted());
  m.sort_columns();
  EXPECT_TRUE(m.columns_sorted());
  const auto rows = m.col_rowids(0);
  const auto vals = m.col_vals(0);
  EXPECT_EQ(rows[0], 0);
  EXPECT_DOUBLE_EQ(vals[0], 0.5);
  EXPECT_EQ(rows[2], 3);
  EXPECT_DOUBLE_EQ(vals[2], 30.0);
}

TEST(CscMat, MergeDuplicatesSums) {
  CscMat m(3, 1, {0, 3}, {1, 1, 0}, {2.0, 3.0, 1.0});
  m.merge_duplicates();
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.col_vals(0)[1], 5.0);
}

TEST(CscMat, PrunePredicate) {
  CscMat m = testing::random_matrix(20, 20, 3.0, 103);
  const Index before = m.nnz();
  m.prune([](Index row, Index col, Value) { return row != col; });
  EXPECT_LE(m.nnz(), before);
  for (Index j = 0; j < m.ncols(); ++j)
    for (Index r : m.col_rowids(j)) EXPECT_NE(r, j);
  m.check_valid();
}

TEST(CscMat, EmptyAndZeroSized) {
  const CscMat empty;
  EXPECT_EQ(empty.nnz(), 0);
  const CscMat zero_cols(5, 0);
  EXPECT_EQ(zero_cols.nnz(), 0);
  const CscMat t = zero_cols.transpose();
  EXPECT_EQ(t.nrows(), 0);
  EXPECT_EQ(t.ncols(), 5);
}

TEST(CscMat, CheckValidCatchesCorruption) {
  EXPECT_THROW(CscMat(2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}),
               std::logic_error);  // non-monotone colptr
  EXPECT_THROW(CscMat(2, 2, {0, 1, 2}, {0, 5}, {1.0, 1.0}),
               std::logic_error);  // row id out of bounds
  EXPECT_THROW(CscMat(2, 2, {0, 1, 3}, {0, 1}, {1.0, 1.0}),
               std::logic_error);  // colptr.back() != nnz
}

TEST(CscMat, StorageBytesIsConsistent) {
  const CscMat m = testing::random_matrix(50, 50, 4.0, 104);
  const Bytes expected =
      static_cast<Bytes>(51) * sizeof(Index) +
      static_cast<Bytes>(m.nnz()) * (sizeof(Index) + sizeof(Value));
  EXPECT_EQ(m.storage_bytes(), expected);
}

TEST(LowerUpperTriangle, SplitsCleanly) {
  const CscMat m = testing::random_matrix(30, 30, 4.0, 105);
  const CscMat lo = lower_triangle(m);
  const CscMat up = upper_triangle(m);
  for (Index j = 0; j < 30; ++j) {
    for (Index r : lo.col_rowids(j)) EXPECT_GT(r, j);
    for (Index r : up.col_rowids(j)) EXPECT_LT(r, j);
  }
  // lower + upper + diagonal == all entries.
  Index diag = 0;
  for (Index j = 0; j < 30; ++j)
    for (Index r : m.col_rowids(j))
      if (r == j) ++diag;
  EXPECT_EQ(lo.nnz() + up.nnz() + diag, m.nnz());
}

}  // namespace
}  // namespace casp
