#include "apps/triangle.hpp"

#include "common/error.hpp"
#include "grid/dist.hpp"
#include "kernels/spgemm.hpp"
#include "summa/batched.hpp"

namespace casp {

TriangleOperands triangle_operands(const CscMat& adjacency) {
  CASP_CHECK(adjacency.nrows() == adjacency.ncols());
  TriangleOperands ops{lower_triangle(adjacency), upper_triangle(adjacency)};
  for (Value& v : ops.lower.vals_mutable()) v = 1.0;
  for (Value& v : ops.upper.vals_mutable()) v = 1.0;
  ops.lower.sort_columns();
  return ops;
}

Index count_triangles_serial(const CscMat& adjacency) {
  const TriangleOperands ops = triangle_operands(adjacency);
  // Masked multiply: only wedge counts on existing edges materialize, so
  // the intermediate never exceeds nnz(L) (the masked-SpGEMM formulation
  // of [3]).
  const CscMat wedges =
      local_spgemm_masked<PlusTimes>(ops.lower, ops.upper, ops.lower);
  Index triangles = 0;
  for (Value v : wedges.vals()) triangles += static_cast<Index>(v + 0.5);
  return triangles;
}

Index count_triangles_distributed(Grid3D& grid, const CscMat& adjacency,
                                  Bytes total_memory,
                                  const SummaOptions& opts) {
  const TriangleOperands ops = triangle_operands(adjacency);
  return count_triangles_lu(grid, ops.lower, ops.upper, total_memory, opts);
}

Index count_triangles_lu(Grid3D& grid, const CscMat& lower,
                         const CscMat& upper, Bytes total_memory,
                         const SummaOptions& opts) {
  const DistMat3D dl = distribute_a_style(grid, lower);
  const DistMat3D du = distribute_b_style(grid, upper);

  // Masked by L, every rank's Local-Multiply forms only the wedges that
  // close on an edge of L, so each piece entry is a triangle count.
  SummaOptions masked = opts;
  masked.mask = &lower;
  Index my_count = 0;
  batched_summa3d<PlusTimes>(
      grid, dl, du, total_memory, masked,
      [&](CscMat&& piece, const BatchInfo&) {
        for (Value v : piece.vals()) my_count += static_cast<Index>(v + 0.5);
      },
      /*keep_output=*/false);

  return grid.world().allreduce_sum<Index>(my_count);
}

}  // namespace casp
