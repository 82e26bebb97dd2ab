// 3D Sparse SUMMA (Algorithm 2).
//
// Per layer: SUMMA2D produces a low-rank local D^(k), already written as
// l wire pieces over the column splits (ColSplit). Each rank exchanges
// piece m with layer m along its fiber (AllToAll-Fiber), and merges the l
// received pieces (Merge-Fiber) into its final C block. The split
// boundaries are a parameter: the plain algorithm splits into l equal
// slices (so C lands A-style distributed), while the batched algorithm
// passes its block-cyclic boundaries.
#pragma once

#include <span>

#include "grid/grid3d.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/steps.hpp"

namespace casp {

/// Collective over the whole grid. local_a / local_b as in summa2d.
/// col_splits: l+1 ascending boundaries over local_b.ncols() (piece m =
/// columns [col_splits[m], col_splits[m+1])); empty means equal l-way
/// part_low splitting. Returns this rank's merged piece (piece `layer()`),
/// with columns still numbered as in the *input* piece (callers track the
/// global mapping). `mask` as in summa2d: this rank's block of the mask,
/// local_a.nrows() x local_b.ncols().
template <typename SR = PlusTimes>
CscMat summa3d(Grid3D& grid, const CscMat& local_a, const CscMat& local_b,
               const SummaOptions& opts = {},
               std::span<const Index> col_splits = {},
               const CscMat* mask = nullptr);

}  // namespace casp
