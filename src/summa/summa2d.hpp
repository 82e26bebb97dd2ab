// 2D Sparse SUMMA (Algorithm 1), run within one layer of the 3D grid.
//
// Executes q stages; at stage s the owners in grid column s broadcast
// their A block along each process row and the owners in grid row s
// broadcast their B block down each process column. Partial products are
// kept per stage (merging incrementally is asymptotically worse [34]) and
// merged once at the end (Merge-Layer).
//
// The kernel that produces D (the lone Local-Multiply when q = 1,
// Merge-Layer otherwise) writes it straight into its ColSplit wire pieces.
#pragma once

#include <span>
#include <vector>

#include "common/payload.hpp"
#include "grid/grid3d.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/steps.hpp"

namespace casp {

/// Collective over grid.layer_comm(). local_a is this rank's A-style block
/// (rows part i x A-col slice), local_b its B-style block (B-row slice x
/// cols part j) — or any column subset of it (batching). Returns the local
/// block D of A*B on this layer (rows part i x local_b.ncols(), merged
/// across stages but *not* across layers) as one packed piece per column
/// range [col_splits[m], col_splits[m+1]), byte-identical to
/// pack_csc_payload(D.slice_cols(...)); {0, ncols} gives D whole.
/// `mask`, when set, is this rank's block of the mask (local_a.nrows() x
/// local_b.ncols(), sorted columns): every Local-Multiply computes
/// (A_s*B_s) .* pattern(mask), so D holds only the mask's positions.
template <typename SR = PlusTimes>
std::vector<Payload> summa2d(Grid3D& grid, const CscMat& local_a,
                             const CscMat& local_b, const SummaOptions& opts,
                             std::span<const Index> col_splits,
                             const CscMat* mask = nullptr);

}  // namespace casp
