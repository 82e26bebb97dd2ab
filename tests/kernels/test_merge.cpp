#include <gtest/gtest.h>

#include "kernels/merge.hpp"
#include "kernels/reference.hpp"
#include "kernels/spgemm.hpp"
#include "test_util.hpp"

namespace casp {
namespace {

std::vector<CscMat> random_pieces(int count, Index rows, Index cols, double d,
                                  std::uint64_t seed) {
  std::vector<CscMat> pieces;
  for (int i = 0; i < count; ++i)
    pieces.push_back(testing::random_matrix(
        rows, cols, d, seed + static_cast<std::uint64_t>(i)));
  return pieces;
}

class MergeBothKinds : public ::testing::TestWithParam<MergeKind> {};

TEST_P(MergeBothKinds, MatchesReferenceAcrossPieceCounts) {
  const MergeKind kind = GetParam();
  for (int count : {1, 2, 3, 7, 16}) {
    const auto pieces = random_pieces(count, 30, 25, 3.0, 50);
    const CscMat expected = reference_merge<PlusTimes>(pieces);
    const CscMat got = merge_matrices<PlusTimes>(csc_refs(pieces), kind);
    testing::expect_mat_near(got, expected, 1e-9);
    if (kind == MergeKind::kSortedHeap) {
      EXPECT_TRUE(got.columns_sorted());
    }
  }
}

TEST_P(MergeBothKinds, OverlappingEntriesAreSummed) {
  const MergeKind kind = GetParam();
  // All pieces identical: merged value = count * value.
  const CscMat base = testing::random_matrix(20, 20, 3.0, 51);
  const std::vector<CscMat> pieces(4, base);
  const CscMat merged = merge_matrices<PlusTimes>(csc_refs(pieces), kind);
  EXPECT_EQ(merged.nnz(), base.nnz());
  CscMat sorted_merged = merged;
  sorted_merged.sort_columns();
  CscMat expected = base;
  expected.sort_columns();
  for (Value& v : expected.vals_mutable()) v *= 4.0;
  testing::expect_mat_near(sorted_merged, expected, 1e-12);
}

TEST_P(MergeBothKinds, EmptyPieces) {
  const MergeKind kind = GetParam();
  const std::vector<CscMat> pieces(3, CscMat(10, 10));
  const CscMat merged = merge_matrices<PlusTimes>(csc_refs(pieces), kind);
  EXPECT_EQ(merged.nnz(), 0);
  EXPECT_EQ(merged.nrows(), 10);
}

TEST_P(MergeBothKinds, MinPlusSemiring) {
  const MergeKind kind = GetParam();
  const auto pieces = random_pieces(3, 15, 15, 2.0, 52);
  testing::expect_mat_near(merge_matrices<MinPlus>(csc_refs(pieces), kind),
                           reference_merge<MinPlus>(pieces), 1e-12);
}

TEST_P(MergeBothKinds, SinglePieceIsReproducedBitwise) {
  // summa2d skips Merge-Layer on one-stage layers; that is only sound if
  // merging a lone Gustavson output is an identity on colptr, row-id
  // order and values — for every local kernel's (sorted or not) output.
  const MergeKind kind = GetParam();
  const CscMat a = testing::random_matrix(45, 45, 4.0, 59);
  for (SpGemmKind local :
       {SpGemmKind::kUnsortedHash, SpGemmKind::kSortedHash, SpGemmKind::kHeap,
        SpGemmKind::kHybrid, SpGemmKind::kSpa}) {
    std::vector<CscMat> pieces;
    pieces.push_back(local_spgemm<PlusTimes>(a, a, local));
    const CscMat merged = merge_matrices<PlusTimes>(csc_refs(pieces), kind);
    EXPECT_TRUE(merged == pieces.front()) << to_string(local);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, MergeBothKinds,
                         ::testing::Values(MergeKind::kUnsortedHash,
                                           MergeKind::kSortedHeap));

TEST(Merge, ShapeMismatchThrows) {
  std::vector<CscMat> pieces;
  pieces.push_back(testing::random_matrix(5, 5, 1.0, 53));
  pieces.push_back(testing::random_matrix(5, 6, 1.0, 54));
  EXPECT_THROW(
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash),
               std::logic_error);
}

TEST(Merge, HashMergeAcceptsUnsortedInputs) {
  // Feed unsorted-hash SpGEMM outputs (unsorted columns) directly into the
  // hash merge — the exact mid-pipeline situation of BatchedSUMMA3D.
  const CscMat a = testing::random_matrix(40, 40, 3.0, 55);
  const CscMat b = testing::random_matrix(40, 40, 3.0, 56);
  std::vector<CscMat> partials;
  partials.push_back(local_spgemm<PlusTimes>(a, b, SpGemmKind::kUnsortedHash));
  partials.push_back(local_spgemm<PlusTimes>(b, a, SpGemmKind::kUnsortedHash));
  const CscMat merged =
      merge_matrices<PlusTimes>(csc_refs(partials), MergeKind::kUnsortedHash);
  std::vector<CscMat> sorted_partials = partials;
  for (CscMat& m : sorted_partials) m.sort_columns();
  const CscMat expected = reference_merge<PlusTimes>(sorted_partials);
  testing::expect_mat_near(merged, expected, 1e-9);
}

TEST(Merge, HashMergeOutputUnsortedIsAllowed) {
  // Documents the contract: kUnsortedHash merge gives no ordering promise;
  // only the final sort fixes order. (Not a strict requirement that it be
  // unsorted — just that the merged values are right either way.)
  const auto pieces = random_pieces(4, 25, 25, 4.0, 57);
  CscMat merged =
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash);
  merged.sort_columns();
  testing::expect_mat_near(merged, reference_merge<PlusTimes>(pieces), 1e-9);
}

TEST(Merge, MultithreadedMatchesSerial) {
  const auto pieces = random_pieces(8, 60, 60, 4.0, 58);
  const CscMat serial =
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash, 1);
  const CscMat parallel =
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash, 4);
  testing::expect_mat_near(parallel, serial, 1e-12);
}

TEST(Merge, KindNames) {
  EXPECT_STREQ(to_string(MergeKind::kUnsortedHash), "unsorted-hash-merge");
  EXPECT_STREQ(to_string(MergeKind::kSortedHeap), "sorted-heap-merge");
}

}  // namespace
}  // namespace casp
