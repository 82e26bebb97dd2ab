// Triangle counting via SpGEMM (application (b) of Sec. V-B).
//
// For an undirected adjacency matrix A split into strictly-lower L and
// strictly-upper U, (L*U)(i,j) with i > j counts the wedges i-k-j with
// k < j < i; masking by the edges of L counts each triangle {k < j < i}
// exactly once [Azad, Buluc, Gilbert 2015]. The distributed count runs
// BatchedSUMMA3D with L as SummaOptions::mask, so every rank's
// Local-Multiply forms only the wedges on its block of L and no
// intermediate exceeds nnz(L).
#pragma once

#include "grid/grid3d.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/steps.hpp"

namespace casp {

/// The operands of the count: L and U of the adjacency with unit values,
/// L's columns sorted (L is the count's mask, and a mask's columns must
/// be sorted).
struct TriangleOperands {
  CscMat lower;
  CscMat upper;
};
TriangleOperands triangle_operands(const CscMat& adjacency);

/// Serial reference (exact).
Index count_triangles_serial(const CscMat& adjacency);

/// Distributed count using BatchedSUMMA3D for L*U; every rank calls with
/// the same replicated adjacency and receives the same global count.
/// total_memory as in batched_summa3d (0 = unlimited).
Index count_triangles_distributed(Grid3D& grid, const CscMat& adjacency,
                                  Bytes total_memory = 0,
                                  const SummaOptions& opts = {});

/// The same count from operands triangle_operands already built. The
/// service admits a triangle job by Symbolic3D of this L*U masked by L and
/// then runs it on the very operands it sized.
Index count_triangles_lu(Grid3D& grid, const CscMat& lower,
                         const CscMat& upper, Bytes total_memory,
                         const SummaOptions& opts);

}  // namespace casp
