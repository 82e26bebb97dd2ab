// Merging partial results — Merge-Layer and Merge-Fiber kernels.
//
// Merging adds entries with equal (row, column) across a collection of
// same-shaped matrices. The paper replaces the prior sorted heap-merge [13]
// with an *unsorted hash merge* that is an order of magnitude faster
// (Table VII) because it neither requires nor produces sorted columns; the
// single final sort happens once, inside Merge-Fiber's emit.
#pragma once

#include <span>
#include <vector>

#include "common/payload.hpp"
#include "kernels/semiring.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/csc_ref.hpp"

namespace casp {

enum class MergeKind {
  kUnsortedHash,  ///< this paper: hash per column, unsorted in/out
  kSortedHeap,    ///< prior work: k-way heap merge, sorted in/out
};

const char* to_string(MergeKind kind);

/// Merge matrices of identical shape by summing duplicates (over SR::add).
/// kSortedHeap requires every input to have sorted columns and always
/// emits sorted ones. `threads`: OpenMP threads over output columns.
/// `sort_output` asks kUnsortedHash for sorted columns (Merge-Fiber's
/// final sort): on the dense accumulator side a bitmap scan per column, on
/// the hash side a per-column sort; bitwise the same as merging and then
/// calling CscMat::sort_columns().
///
/// C is written once, into exact arrays: one piece sizes them from its
/// column counts, several from a counting pass.
///
/// The entry points take non-owning refs; wrap an owned collection
/// with csc_refs(...) — works identically for CscMat vectors and CscView
/// vectors (e.g. the fiber all-to-all buffers, merged zero-copy without
/// deserializing them first).
template <typename SR = PlusTimes>
CscMat merge_matrices(std::span<const CscConstRef> pieces,
                      MergeKind kind = MergeKind::kUnsortedHash,
                      int threads = 1, bool sort_output = false);

/// Merge-Layer's form: the merge written into wire images, one per column
/// range, by compacting upper-bound scratch into them. Piece m is
/// byte-identical to pack_csc_payload(merge_matrices(...).slice_cols(...)).
template <typename SR = PlusTimes>
std::vector<Payload> merge_matrices_wire(std::span<const CscConstRef> pieces,
                                         std::span<const Index> splits,
                                         MergeKind kind = MergeKind::kUnsortedHash,
                                         int threads = 1);

}  // namespace casp
