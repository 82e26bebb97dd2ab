// Local (in-process) SpGEMM kernels — Gustavson column algorithm with
// pluggable accumulators (Sec. IV-D).
//
// The paper's optimization: Local-Multiply and Merge-Layer outputs do not
// need sorted columns because only the final Merge-Fiber result is handed
// to the application, so the *unsorted hash* kernel skips all intermediate
// sorting. The heap and hybrid kernels reproduce the prior state of the art
// ([13] and [25]) for the Fig. 15 / Table VII comparisons.
#pragma once

#include <span>
#include <vector>

#include "common/payload.hpp"
#include "kernels/semiring.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/csc_ref.hpp"

namespace casp {

enum class SpGemmKind {
  kUnsortedHash,  ///< this paper's Local-Multiply kernel: hash, no sorting
  kSortedHash,    ///< hash accumulation + per-column sort
  kHeap,          ///< multiway heap merge of scaled A-columns (sorted output)
  kHybrid,        ///< per-column heap-or-hash by compression heuristic,
                  ///< sorted output (prior state of the art, Nagasaka et al.)
  kSpa,           ///< dense sparse-accumulator (sorted output)
};

const char* to_string(SpGemmKind kind);

/// Whether a kernel's output has sorted columns.
bool produces_sorted(SpGemmKind kind);

/// C = A * B over semiring SR. Requires a.ncols() == b.nrows(). Input
/// columns may be unsorted for the hash/spa kernels; the heap and hybrid
/// kernels require sorted inputs (they merge sorted runs).
/// `threads`: OpenMP threads to parallelize over output columns.
///
/// The hash kinds accumulate in kernels/accumulator.hpp's row accumulator,
/// on its dense side when a.nrows() <= flops(A*B) and its hash side
/// otherwise; kSpa is always the dense side. The side never changes the
/// output bytes.
///
/// Operands are non-owning refs, implicitly convertible from an owned
/// CscMat or a payload-borrowing CscView — the one entry point serves both
/// the owned and the zero-copy (wire buffers read in place) paths.
///
/// `col_nnz_hints`, when non-empty (length b.ncols()), gives per-output-
/// column nnz upper bounds from a prior symbolic pass
/// (SymbolicResult::col_nnz) — a sum over stages, so it always covers one
/// stage's column. The hash accumulators size their tables from
/// min(flops bound, hint); kUnsortedHash and kSortedHash also size each
/// output column from it instead of the flops bound, and exact hints let
/// the output buffers become the result without a compaction copy. Hints
/// are advisory: if a column outgrows its hint, the multiply reruns on the
/// flops bound, so the output never depends on them. Ignored by the
/// heap/spa accumulators.
///
/// `mask`, when set, makes it the masked SpGEMM C = (A * B) .* pattern(mask)
/// of [3]: every kind runs the mask side of the row accumulator, which
/// keeps only contributions at the mask column's rows, so a column never
/// holds more than nnz(mask_j) entries and its slice is sized
/// min(flops_j, nnz(mask_j)) (or from the hint). The kept entries fold in
/// the same order as unmasked, so C is bitwise the unmasked product
/// restricted to the mask's pattern, with each column in mask order.
/// mask must have the product's shape and sorted columns (the output's
/// columns are then sorted, as kHybrid's merges require). With mask null
/// the kernels never test it per entry.
template <typename SR = PlusTimes>
CscMat local_spgemm(const CscConstRef& a, const CscConstRef& b,
                    SpGemmKind kind = SpGemmKind::kUnsortedHash,
                    int threads = 1,
                    std::span<const Index> col_nnz_hints = {},
                    const CscConstRef* mask = nullptr);

/// local_spgemm written straight into wire images, one per column range
/// [splits[m], splits[m+1]) (sparse/serialize.hpp's CscWireImages), with
/// the same slice sizing and rerun: piece m is byte-identical to
/// pack_csc_payload(local_spgemm(...).slice_cols(splits[m], splits[m+1])).
template <typename SR = PlusTimes>
std::vector<Payload> local_spgemm_wire(
    const CscConstRef& a, const CscConstRef& b, std::span<const Index> splits,
    SpGemmKind kind = SpGemmKind::kUnsortedHash, int threads = 1,
    std::span<const Index> col_nnz_hints = {},
    const CscConstRef* mask = nullptr);

/// Serial masked SpGEMM: local_spgemm with `mask`, on one thread. Triangle
/// counting's reference masks L*U by L [3].
template <typename SR = PlusTimes>
CscMat local_spgemm_masked(const CscConstRef& a, const CscConstRef& b,
                           const CscConstRef& mask) {
  return local_spgemm<SR>(a, b, SpGemmKind::kUnsortedHash, /*threads=*/1, {},
                          &mask);
}

}  // namespace casp
