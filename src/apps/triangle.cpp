#include "apps/triangle.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "grid/dist.hpp"
#include "kernels/spgemm.hpp"
#include "summa/batched.hpp"

namespace casp {

namespace {
/// Binary-search membership test in a sorted column.
bool column_contains(const CscMat& m, Index col, Index row) {
  const auto rows = m.col_rowids(col);
  return std::binary_search(rows.begin(), rows.end(), row);
}
}  // namespace

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

  // C = L*U shares L's rows but not, at l > 1, its columns (the fiber
  // split cuts them by work), so the mask looks up each piece entry at its
  // global coordinates in the replicated L.
  Index my_count = 0;
  batched_summa3d<PlusTimes>(
      grid, dl, du, total_memory, opts,
      [&](CscMat&& piece, const BatchInfo& info) {
        for (Index j = 0; j < piece.ncols(); ++j) {
          const Index col = info.global_cols.start + j;
          const auto rows = piece.col_rowids(j);
          const auto vals = piece.col_vals(j);
          for (std::size_t k = 0; k < rows.size(); ++k) {
            if (column_contains(lower, col, rows[k] + info.global_rows.start))
              my_count += static_cast<Index>(vals[k] + 0.5);
          }
        }
      },
      /*keep_output=*/false);

  return grid.world().allreduce_sum<Index>(my_count);
}

}  // namespace casp
