#include <gtest/gtest.h>

#include <queue>
#include <unordered_map>

#include "gen/rmat.hpp"
#include "kernels/accumulator.hpp"
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

/// Piece sets on the dense side: ER pieces that overlap at random, and
/// skewed R-MAT pieces whose short columns take emit_sorted's sort branch
/// and whose long ones take its bitmap scan.
std::vector<std::vector<CscMat>> dense_side_piece_sets() {
  std::vector<CscMat> rmat;
  for (std::uint64_t seed : {60, 61, 62}) {
    RmatParams p;
    p.scale = 12;
    p.edge_factor = 4.0;
    p.seed = seed;
    rmat.push_back(generate_rmat(p));
  }
  std::vector<CscMat> er = random_pieces(4, 60, 60, 4.0, 59);
  er.push_back(er.front());  // guaranteed overlaps
  return {er, rmat};
}

/// The same pieces padded with empty rows past their total nnz, so the
/// merge runs on the hash side.
std::vector<CscMat> hash_side_twin(const std::vector<CscMat>& pieces) {
  Index work = 0;
  for (const CscMat& m : pieces) work += m.nnz();
  EXPECT_TRUE(use_dense_rows(pieces.front().nrows(), work));
  std::vector<CscMat> tall;
  for (const CscMat& m : pieces) tall.push_back(testing::pad_rows(m, work));
  EXPECT_FALSE(use_dense_rows(tall.front().nrows(), work));
  return tall;
}

template <typename SR>
void expect_sides_bitwise_equal() {
  for (const auto& pieces : dense_side_piece_sets()) {
    const std::vector<CscMat> tall = hash_side_twin(pieces);
    for (bool sorted : {false, true}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "sorted " << sorted << " x"
                                          << threads << " nrows "
                                          << pieces.front().nrows());
        testing::expect_same_arrays(
            merge_matrices<SR>(csc_refs(pieces), MergeKind::kUnsortedHash,
                               threads, sorted),
            merge_matrices<SR>(csc_refs(tall), MergeKind::kUnsortedHash,
                               threads, sorted));
      }
    }
  }
}

TEST(Merge, DenseAndHashSidesAreBitwiseEqualPlusTimes) {
  expect_sides_bitwise_equal<PlusTimes>();
}

TEST(Merge, DenseAndHashSidesAreBitwiseEqualMinPlus) {
  expect_sides_bitwise_equal<MinPlus>();
}

TEST(Merge, SortedMergeEqualsMergeThenSortColumns) {
  // Merge-Fiber's sorted emit is bitwise the hash merge followed by
  // CscMat::sort_columns(), on both accumulator sides.
  for (const auto& pieces : dense_side_piece_sets()) {
    for (const auto& side : {pieces, hash_side_twin(pieces)}) {
      for (int threads : {1, 4}) {
        CscMat expected = merge_matrices<PlusTimes>(
            csc_refs(side), MergeKind::kUnsortedHash, threads);
        expected.sort_columns();
        const CscMat got = merge_matrices<PlusTimes>(
            csc_refs(side), MergeKind::kUnsortedHash, threads,
            /*sort_output=*/true);
        EXPECT_TRUE(got == expected) << "nrows " << side.front().nrows();
        EXPECT_TRUE(got.columns_sorted());
      }
    }
  }
}

/// The merge as it was sized before exact sizing: every column into an
/// upper-bound slice (its total input nnz), then a compaction copy. The
/// hash merge emits rows in first-touch order with contributions folded in
/// arrival order (then sorted when asked); the heap merge pops the
/// smallest (row, piece) and sums equal neighbours, unsorted inputs
/// included.
template <typename SR>
CscMat upper_bound_merge(const std::vector<CscMat>& pieces, MergeKind kind,
                         bool sort_output) {
  const Index ncols = pieces.front().ncols();
  std::vector<Index> ub(static_cast<std::size_t>(ncols) + 1, 0);
  for (Index j = 0; j < ncols; ++j) {
    ub[static_cast<std::size_t>(j) + 1] = ub[static_cast<std::size_t>(j)];
    for (const CscMat& m : pieces) ub[static_cast<std::size_t>(j) + 1] += m.col_nnz(j);
  }
  std::vector<std::pair<Index, Value>> slots(static_cast<std::size_t>(ub.back()));
  std::vector<Index> colptr(ub.size(), 0);
  for (Index j = 0; j < ncols; ++j) {
    auto* out = slots.data() + ub[static_cast<std::size_t>(j)];
    Index cnt = 0;
    if (kind == MergeKind::kUnsortedHash) {
      std::unordered_map<Index, Index> at;
      for (const CscMat& m : pieces) {
        for (std::size_t k = 0; k < m.col_rowids(j).size(); ++k) {
          const Index row = m.col_rowids(j)[k];
          const Value v = m.col_vals(j)[k];
          const auto [it, fresh] = at.try_emplace(row, cnt);
          if (fresh)
            out[cnt++] = {row, v};
          else
            out[it->second].second = SR::add(out[it->second].second, v);
        }
      }
      if (sort_output)
        std::sort(out, out + cnt,
                  [](const auto& x, const auto& y) { return x.first < y.first; });
    } else {
      using Item = std::pair<Index, std::size_t>;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
      std::vector<std::size_t> pos(pieces.size(), 0);
      for (std::size_t s = 0; s < pieces.size(); ++s)
        if (pieces[s].col_nnz(j) > 0) heap.emplace(pieces[s].col_rowids(j)[0], s);
      while (!heap.empty()) {
        const auto [row, s] = heap.top();
        heap.pop();
        const Value v = pieces[s].col_vals(j)[pos[s]];
        if (cnt > 0 && out[cnt - 1].first == row)
          out[cnt - 1].second = SR::add(out[cnt - 1].second, v);
        else
          out[cnt++] = {row, v};
        if (++pos[s] < static_cast<std::size_t>(pieces[s].col_nnz(j)))
          heap.emplace(pieces[s].col_rowids(j)[pos[s]], s);
      }
    }
    colptr[static_cast<std::size_t>(j) + 1] = colptr[static_cast<std::size_t>(j)] + cnt;
  }
  std::vector<Index> rowids;
  std::vector<Value> vals;
  for (Index j = 0; j < ncols; ++j) {
    const auto* first = slots.data() + ub[static_cast<std::size_t>(j)];
    for (Index k = 0; k < colptr[static_cast<std::size_t>(j) + 1] - colptr[static_cast<std::size_t>(j)]; ++k) {
      rowids.push_back(first[k].first);
      vals.push_back(first[k].second);
    }
  }
  return CscMat(pieces.front().nrows(), ncols, std::move(colptr),
                std::move(rowids), std::move(vals));
}

template <typename SR>
void expect_exact_sized_merge(const std::vector<CscMat>& pieces) {
  for (MergeKind kind : {MergeKind::kUnsortedHash, MergeKind::kSortedHeap}) {
    for (bool sort_output : {false, true}) {
      if (kind == MergeKind::kSortedHeap && sort_output) continue;
      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(kind) << " sort " << sort_output << " x"
                     << threads << " pieces " << pieces.size());
        testing::expect_same_arrays(
            merge_matrices<SR>(csc_refs(pieces), kind, threads, sort_output),
            upper_bound_merge<SR>(pieces, kind, sort_output));
      }
    }
  }
}

TEST(Merge, ExactSizedMatchesUpperBoundReference) {
  // Sorted inputs (generated) and unsorted ones (unsorted-hash products),
  // one piece and several, on both accumulator sides (the padded twin is
  // taller than its input nnz, so it merges on the hash side).
  const CscMat a = testing::random_matrix(40, 40, 4.0, 70);
  const CscMat b = testing::random_matrix(40, 40, 4.0, 71);
  std::vector<CscMat> unsorted;
  unsorted.push_back(local_spgemm<PlusTimes>(a, b));
  unsorted.push_back(local_spgemm<PlusTimes>(b, a));
  unsorted.push_back(local_spgemm<PlusTimes>(a, a));
  ASSERT_FALSE(unsorted.front().columns_sorted());
  for (const std::vector<CscMat>& pieces :
       {random_pieces(1, 40, 40, 4.0, 72), random_pieces(3, 40, 40, 4.0, 73),
        std::vector<CscMat>(unsorted.begin(), unsorted.begin() + 1),
        unsorted}) {
    expect_exact_sized_merge<PlusTimes>(pieces);
    expect_exact_sized_merge<MinPlus>(pieces);
    std::vector<CscMat> tall;
    for (const CscMat& m : pieces) tall.push_back(testing::pad_rows(m, 5000));
    expect_exact_sized_merge<PlusTimes>(tall);
  }
}

TEST(Merge, OnePieceWithRepeatedRowsStillMerges) {
  // One piece sizes each column from its input count, exact for a
  // Gustavson column; a column that repeats a row comes out shorter and is
  // compacted.
  const CscMat piece(4, 2, {0, 3, 4}, {1, 3, 1, 2}, {1.0, 2.0, 4.0, 8.0});
  const std::vector<CscMat> pieces{piece};
  expect_exact_sized_merge<PlusTimes>(pieces);
  const CscMat merged =
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash);
  EXPECT_EQ(merged.nnz(), 3);
}

TEST(MergeWire, MergeLayerPiecesBitwise) {
  // Merge-Layer writes D's pieces by compacting its upper-bound scratch
  // into the wire images: each piece is the slice-then-pack of the merge.
  const CscMat a = testing::random_matrix(60, 60, 4.0, 74);
  const CscMat b = testing::random_matrix(60, 60, 4.0, 75);
  std::vector<CscMat> partials;
  partials.push_back(local_spgemm<PlusTimes>(a, b));
  partials.push_back(local_spgemm<PlusTimes>(b, a));
  for (const std::vector<Index>& splits :
       {std::vector<Index>{0, 60}, std::vector<Index>{0, 0, 21, 21, 60},
        std::vector<Index>{0, 15, 30, 45, 60}}) {
    for (MergeKind kind : {MergeKind::kUnsortedHash, MergeKind::kSortedHeap}) {
      SCOPED_TRACE(::testing::Message() << to_string(kind) << " l "
                                        << splits.size() - 1);
      testing::expect_wire_pieces(
          merge_matrices_wire<PlusTimes>(csc_refs(partials), splits, kind, 4),
          merge_matrices<PlusTimes>(csc_refs(partials), kind, 4), splits);
      testing::expect_wire_pieces(
          merge_matrices_wire<MinPlus>(csc_refs(partials), splits, kind),
          merge_matrices<MinPlus>(csc_refs(partials), kind), splits);
    }
  }
  const std::vector<CscMat> empty(2, CscMat(60, 60));
  const std::vector<Index> splits{0, 30, 60};
  testing::expect_wire_pieces(
      merge_matrices_wire<PlusTimes>(csc_refs(empty), splits),
      CscMat(60, 60), splits);
}

TEST(Merge, KindNames) {
  EXPECT_STREQ(to_string(MergeKind::kUnsortedHash), "unsorted-hash-merge");
  EXPECT_STREQ(to_string(MergeKind::kSortedHeap), "sorted-heap-merge");
}

}  // namespace
}  // namespace casp
