// Local SpGEMM kernels vs the independent map-based reference, swept over
// kernel kinds, shapes, densities, and semirings.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "gen/rmat.hpp"
#include "kernels/accumulator.hpp"
#include "kernels/reference.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/symbolic.hpp"
#include "sparse/stats.hpp"
#include "test_util.hpp"

namespace casp {
namespace {

const SpGemmKind kAllKinds[] = {SpGemmKind::kUnsortedHash,
                                SpGemmKind::kSortedHash, SpGemmKind::kHeap,
                                SpGemmKind::kHybrid, SpGemmKind::kSpa};

struct SpGemmCase {
  Index m, k, n;
  double da, db;
  std::uint64_t seed;
};

class SpGemmKinds
    : public ::testing::TestWithParam<std::tuple<SpGemmKind, SpGemmCase>> {};

TEST_P(SpGemmKinds, MatchesReference) {
  const auto [kind, c] = GetParam();
  const CscMat a = testing::random_matrix(c.m, c.k, c.da, c.seed);
  const CscMat b = testing::random_matrix(c.k, c.n, c.db, c.seed + 1);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);
  const CscMat got = local_spgemm<PlusTimes>(a, b, kind);
  testing::expect_mat_near(got, expected, 1e-9);
  if (produces_sorted(kind)) {
    EXPECT_TRUE(got.columns_sorted());
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsTimesShapes, SpGemmKinds,
    ::testing::Combine(
        ::testing::ValuesIn(kAllKinds),
        ::testing::Values(SpGemmCase{20, 20, 20, 3.0, 3.0, 1},
                          SpGemmCase{50, 30, 40, 4.0, 2.0, 2},
                          SpGemmCase{1, 1, 1, 1.0, 1.0, 3},
                          SpGemmCase{100, 100, 100, 5.0, 5.0, 4},
                          // dense-ish: heavy accumulator collisions
                          SpGemmCase{12, 12, 12, 8.0, 8.0, 5},
                          // hyper-sparse: mostly empty columns
                          SpGemmCase{200, 200, 200, 0.2, 0.2, 6},
                          // wildly rectangular
                          SpGemmCase{5, 150, 7, 2.0, 30.0, 7})));

TEST(SpGemm, EmptyOperands) {
  const CscMat a(10, 0);
  const CscMat b(0, 5);
  for (SpGemmKind kind : kAllKinds) {
    const CscMat c = local_spgemm<PlusTimes>(a, b, kind);
    EXPECT_EQ(c.nrows(), 10);
    EXPECT_EQ(c.ncols(), 5);
    EXPECT_EQ(c.nnz(), 0);
  }
}

TEST(SpGemm, DimensionMismatchThrows) {
  const CscMat a = testing::random_matrix(4, 5, 1.0, 8);
  const CscMat b = testing::random_matrix(6, 4, 1.0, 9);
  EXPECT_THROW(local_spgemm<PlusTimes>(a, b), std::logic_error);
}

TEST(SpGemm, UnsortedHashSortsToSameCanonicalForm) {
  const CscMat a = testing::random_matrix(60, 60, 4.0, 10);
  CscMat unsorted = local_spgemm<PlusTimes>(a, a, SpGemmKind::kUnsortedHash);
  const CscMat sorted = local_spgemm<PlusTimes>(a, a, SpGemmKind::kSortedHash);
  // The unsorted kernel's whole point: same math, no intermediate sorting.
  unsorted.sort_columns();
  testing::expect_mat_near(unsorted, sorted, 1e-12);
}

TEST(SpGemm, AcceptsUnsortedInputs) {
  // Hash kernels must work when the inputs themselves are unsorted — that
  // is what Merge-Layer receives mid-pipeline.
  const CscMat a = testing::random_matrix(30, 30, 3.0, 11);
  CscMat shuffled(
      a.nrows(), a.ncols(),
      std::vector<Index>(a.colptr().begin(), a.colptr().end()),
      std::vector<Index>(a.rowids().begin(), a.rowids().end()),
      std::vector<Value>(a.vals().begin(), a.vals().end()));
  // Reverse each column's entry order.
  {
    std::vector<Index> rows(shuffled.rowids().begin(), shuffled.rowids().end());
    std::vector<Value> vals(shuffled.vals().begin(), shuffled.vals().end());
    for (Index j = 0; j < a.ncols(); ++j) {
      const auto lo = static_cast<std::size_t>(a.colptr()[static_cast<std::size_t>(j)]);
      const auto hi = static_cast<std::size_t>(a.colptr()[static_cast<std::size_t>(j) + 1]);
      std::reverse(rows.begin() + static_cast<std::ptrdiff_t>(lo),
                   rows.begin() + static_cast<std::ptrdiff_t>(hi));
      std::reverse(vals.begin() + static_cast<std::ptrdiff_t>(lo),
                   vals.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    shuffled = CscMat(a.nrows(), a.ncols(),
                      std::vector<Index>(a.colptr().begin(), a.colptr().end()),
                      std::move(rows), std::move(vals));
  }
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  testing::expect_mat_near(
      local_spgemm<PlusTimes>(shuffled, shuffled, SpGemmKind::kUnsortedHash),
      expected, 1e-9);
  testing::expect_mat_near(
      local_spgemm<PlusTimes>(shuffled, shuffled, SpGemmKind::kSpa), expected,
      1e-9);
}

TEST(SpGemmSemirings, MinPlusMatchesReference) {
  const CscMat a = testing::random_matrix(25, 25, 3.0, 12);
  const CscMat expected = reference_multiply<MinPlus>(a, a);
  for (SpGemmKind kind : kAllKinds)
    testing::expect_mat_near(local_spgemm<MinPlus>(a, a, kind), expected,
                             1e-12);
}

TEST(SpGemmSemirings, MaxMinMatchesReference) {
  const CscMat a = testing::random_matrix(25, 25, 3.0, 13);
  const CscMat expected = reference_multiply<MaxMin>(a, a);
  for (SpGemmKind kind : kAllKinds)
    testing::expect_mat_near(local_spgemm<MaxMin>(a, a, kind), expected,
                             1e-12);
}

TEST(SpGemmSemirings, OrAndMatchesReference) {
  CscMat a = testing::random_matrix(25, 25, 3.0, 14);
  for (Value& v : a.vals_mutable()) v = 1.0;
  const CscMat expected = reference_multiply<OrAnd>(a, a);
  for (SpGemmKind kind : kAllKinds)
    testing::expect_mat_near(local_spgemm<OrAnd>(a, a, kind), expected, 0.0);
}

TEST(SpGemm, PowerLawInputsAllKindsAgree) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 6.0;
  p.seed = 15;
  const CscMat a = generate_rmat(p);
  const CscMat expected =
      local_spgemm<PlusTimes>(a, a, SpGemmKind::kSpa);  // SPA as anchor
  for (SpGemmKind kind : kAllKinds)
    testing::expect_mat_near(local_spgemm<PlusTimes>(a, a, kind), expected,
                             1e-9);
}

TEST(SpGemm, MultithreadedMatchesSerial) {
  const CscMat a = testing::random_matrix(120, 120, 5.0, 16);
  const CscMat serial = local_spgemm<PlusTimes>(a, a, SpGemmKind::kUnsortedHash,
                                                /*threads=*/1);
  const CscMat parallel =
      local_spgemm<PlusTimes>(a, a, SpGemmKind::kUnsortedHash, /*threads=*/4);
  testing::expect_mat_near(parallel, serial, 1e-12);
}

TEST(SpGemm, SymbolicHintsPreserveResultsExactly) {
  // Pre-sizing the hash tables from symbolic per-column counts must not
  // change a single byte of the output: emit order is first-touch order,
  // independent of table capacity. For the hash kinds, exact counts also
  // size every output slice to its column, so the buffers become the
  // result uncopied.
  const CscMat a = testing::random_matrix(90, 90, 4.0, 17);
  const std::vector<Index> hints = symbolic_column_nnz(a, a);
  for (SpGemmKind kind :
       {SpGemmKind::kUnsortedHash, SpGemmKind::kSortedHash,
        SpGemmKind::kHybrid}) {
    for (int threads : {1, 4}) {
      const CscMat plain = local_spgemm<PlusTimes>(a, a, kind, threads);
      const CscMat hinted =
          local_spgemm<PlusTimes>(a, a, kind, threads, hints);
      EXPECT_TRUE(hinted == plain) << to_string(kind) << " x" << threads;
    }
  }
}

TEST(SpGemm, UndersizedHintsStillProduceCorrectResults) {
  // A wrong (too small) hint must cost a rehash, never correctness: the
  // accumulator grows on load instead of looping on a full table.
  const CscMat a = testing::random_matrix(60, 60, 5.0, 18);
  const std::vector<Index> ones(static_cast<std::size_t>(a.ncols()), 1);
  const CscMat plain =
      local_spgemm<PlusTimes>(a, a, SpGemmKind::kUnsortedHash);
  const CscMat hinted = local_spgemm<PlusTimes>(
      a, a, SpGemmKind::kUnsortedHash, /*threads=*/1, ones);
  testing::expect_mat_near(hinted, plain, 1e-12);
}

TEST(SpGemm, OneShortHintFallsBackToFlopsBoundBitwise) {
  // One column in the middle hinted one entry short: that column outgrows
  // its slice mid-loop (other threads have already written theirs), and the
  // rerun on the flops bound must reproduce the unhinted bytes.
  const CscMat a = testing::random_matrix(110, 110, 5.0, 21);
  std::vector<Index> hints = symbolic_column_nnz(a, a);
  const std::size_t mid = hints.size() / 2;
  std::size_t victim = mid;
  for (std::size_t j = mid; j < hints.size(); ++j)
    if (hints[j] > hints[victim]) victim = j;
  ASSERT_GE(hints[victim], 2);  // hint - 1 must still be a real limit
  --hints[victim];
  for (SpGemmKind kind : {SpGemmKind::kUnsortedHash, SpGemmKind::kSortedHash}) {
    const CscMat plain = local_spgemm<PlusTimes>(a, a, kind, /*threads=*/4);
    const CscMat hinted =
        local_spgemm<PlusTimes>(a, a, kind, /*threads=*/4, hints);
    EXPECT_TRUE(hinted == plain) << to_string(kind);
  }
}

TEST(SpGemm, DenseAndHashSidesAreBitwiseEqual) {
  // A block no taller than its flops multiplies on the dense side; padded
  // with empty rows past its flops, the same product runs on the hash
  // side. kSpa is dense at any height, so its hash twin is kSortedHash.
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 4.0;
  p.seed = 22;
  for (const CscMat& a :
       {testing::random_matrix(100, 100, 5.0, 23), generate_rmat(p)}) {
    const Index flops = multiply_flops(a, a);
    ASSERT_TRUE(use_dense_rows(a.nrows(), flops));
    const CscMat tall = testing::pad_rows(a, flops);
    for (SpGemmKind kind :
         {SpGemmKind::kUnsortedHash, SpGemmKind::kSortedHash,
          SpGemmKind::kHybrid, SpGemmKind::kSpa}) {
      const SpGemmKind hash_kind =
          kind == SpGemmKind::kSpa ? SpGemmKind::kSortedHash : kind;
      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << to_string(kind) << " x" << threads
                                          << " nrows " << a.nrows());
        testing::expect_same_arrays(
            local_spgemm<PlusTimes>(a, a, kind, threads),
            local_spgemm<PlusTimes>(tall, a, hash_kind, threads));
      }
    }
  }
}

TEST(SpGemm, OneShortHintOnTheDenseSideMatchesTheHashSide) {
  // The advisory-hint rerun on the dense side reproduces the unhinted
  // hash-side bytes.
  const CscMat a = testing::random_matrix(110, 110, 5.0, 24);
  const Index flops = multiply_flops(a, a);
  ASSERT_TRUE(use_dense_rows(a.nrows(), flops));
  std::vector<Index> hints = symbolic_column_nnz(a, a);
  const auto victim = static_cast<std::size_t>(
      std::max_element(hints.begin(), hints.end()) - hints.begin());
  ASSERT_GE(hints[victim], 2);
  --hints[victim];
  const CscMat tall = testing::pad_rows(a, flops);
  for (SpGemmKind kind : {SpGemmKind::kUnsortedHash, SpGemmKind::kSortedHash}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << to_string(kind) << " x" << threads);
      testing::expect_same_arrays(
          local_spgemm<PlusTimes>(a, a, kind, threads, hints),
          local_spgemm<PlusTimes>(tall, a, kind, threads));
    }
  }
}

TEST(SpGemm, HintSpanOfWrongLengthIsRejected) {
  const CscMat a = testing::random_matrix(12, 12, 2.0, 19);
  const std::vector<Index> short_hints(3, 5);
  EXPECT_THROW((void)local_spgemm<PlusTimes>(
                   a, a, SpGemmKind::kUnsortedHash, 1, short_hints),
               std::logic_error);
}

// local_spgemm_wire writes the product straight into its column-range wire
// images; every piece must be byte for byte the slice-then-pack of the
// CscMat product, whatever sized the slices.
template <typename SR>
void expect_wire_matches(const CscMat& a, const std::vector<Index>& splits,
                         std::span<const Index> hints) {
  for (SpGemmKind kind : kAllKinds) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << to_string(kind) << " x" << threads);
      testing::expect_wire_pieces(
          local_spgemm_wire<SR>(a, a, splits, kind, threads, hints),
          local_spgemm<SR>(a, a, kind, threads, hints), splits);
    }
  }
}

TEST(SpGemmWire, ExactHintsWritePiecesBitwise) {
  const CscMat a = testing::random_matrix(90, 90, 4.0, 31);
  const std::vector<Index> hints = symbolic_column_nnz(a, a);
  expect_wire_matches<PlusTimes>(a, {0, 30, 55, 90}, hints);
  expect_wire_matches<MinPlus>(a, {0, 30, 55, 90}, hints);
}

TEST(SpGemmWire, OneShortHintRerunsBitwise) {
  const CscMat a = testing::random_matrix(110, 110, 5.0, 32);
  std::vector<Index> hints = symbolic_column_nnz(a, a);
  const auto victim = static_cast<std::size_t>(
      std::max_element(hints.begin(), hints.end()) - hints.begin());
  ASSERT_GE(hints[victim], 2);
  --hints[victim];
  expect_wire_matches<PlusTimes>(a, {0, 40, 41, 110}, hints);
  expect_wire_matches<MinPlus>(a, {0, 40, 41, 110}, hints);
}

TEST(SpGemmWire, NoHintsCompactSlackInPlace) {
  // Unhinted slices hold the flops bound; denser than its rows, the product
  // compresses, so every image is compacted in place.
  const CscMat a = testing::random_matrix(40, 70, 6.0, 33);
  const CscMat b = testing::random_matrix(70, 50, 6.0, 34);
  ASSERT_LT(local_spgemm<PlusTimes>(a, b).nnz(), multiply_flops(a, b));
  const std::vector<Index> splits{0, 17, 33, 50};
  for (SpGemmKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    testing::expect_wire_pieces(local_spgemm_wire<PlusTimes>(a, b, splits, kind),
                                local_spgemm<PlusTimes>(a, b, kind), splits);
    testing::expect_wire_pieces(local_spgemm_wire<MinPlus>(a, b, splits, kind),
                                local_spgemm<MinPlus>(a, b, kind), splits);
  }
}

TEST(SpGemmWire, OneSplitIsTheWholeProduct) {
  const CscMat a = testing::random_matrix(60, 60, 4.0, 35);
  expect_wire_matches<PlusTimes>(a, {0, 60}, {});
  expect_wire_matches<PlusTimes>(a, {0, 60}, symbolic_column_nnz(a, a));
}

TEST(SpGemmWire, ZeroWidthAndEmptyPieces) {
  const CscMat a = testing::random_matrix(50, 50, 3.0, 36);
  expect_wire_matches<PlusTimes>(a, {0, 0, 20, 20, 50, 50}, {});
  // An all-empty product: every piece is a header and a zero colptr.
  const CscMat zero(50, 50);
  const std::vector<Index> splits{0, 0, 25, 50};
  testing::expect_wire_pieces(local_spgemm_wire<PlusTimes>(zero, zero, splits),
                              local_spgemm<PlusTimes>(zero, zero), splits);
}

TEST(SpGemmWire, DescendingSplitsAreRejected) {
  const CscMat a = testing::random_matrix(20, 20, 2.0, 37);
  const std::vector<Index> splits{0, 12, 8, 20};
  EXPECT_THROW((void)local_spgemm_wire<PlusTimes>(a, a, splits),
               std::logic_error);
}

TEST(SpGemm, KindNames) {
  EXPECT_STREQ(to_string(SpGemmKind::kUnsortedHash), "unsorted-hash");
  EXPECT_STREQ(to_string(SpGemmKind::kHybrid), "hybrid");
  EXPECT_FALSE(produces_sorted(SpGemmKind::kUnsortedHash));
  EXPECT_TRUE(produces_sorted(SpGemmKind::kHeap));
}

}  // namespace
}  // namespace casp
