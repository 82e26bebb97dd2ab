// Matrix distribution on the 3D grid (Fig. 1).
//
// A-style (used for A, the per-layer D, and C's rows): rows are split into
// q parts by grid row i; columns are split into q parts by grid column j
// and each part further into l layer slices by k — so layer k holds an
// n x (n/l) slice of A that respects the 2D block boundaries (Fig. 1c-e).
// At l > 1 batched_summa3d cuts C's layer slices by work instead (the
// fiber split), so C is A-style only in its rows there.
//
// B-style: the mirror image — rows get the (part j -> then -> layer slice)
// treatment keyed by grid *row* i, columns are split into q parts by grid
// column j (Fig. 1f-h). With these two layouts the stage-s broadcasts in
// SUMMA2D align exactly: A's column slice (part s, sub k) meets B's row
// slice (part s, sub k).
//
// distribute_* cut every boundary with part_low (floor) arithmetic, so
// nothing requires divisibility (see common/math.hpp); rebalance_inner then
// moves the inner dimension's layer slices to equal-flops boundaries.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "grid/grid3d.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/csc_view.hpp"

namespace casp {

/// A contiguous global index range [start, start + count).
struct LocalRange {
  Index start = 0;
  Index count = 0;
};

/// One rank's piece of a matrix distributed on the 3D grid, with the global
/// coordinates it covers. Local indices are 0-based within the ranges.
struct DistMat3D {
  CscMat local;
  Index global_rows = 0;
  Index global_cols = 0;
  /// Total nonzeros of the *global* matrix. Grid-independent (both styles
  /// partition every nonzero exactly once), so checkpoint job identities
  /// built from it survive a resume on a different grid shape.
  Index global_nnz = 0;
  LocalRange rows;
  LocalRange cols;
};

// Global ranges owned by rank (i, j, k) of the grid:
LocalRange a_style_row_range(const Grid3D& grid, Index global_rows);
LocalRange a_style_col_range(const Grid3D& grid, Index global_cols);
LocalRange b_style_row_range(const Grid3D& grid, Index global_rows);
LocalRange b_style_col_range(const Grid3D& grid, Index global_cols);

/// Extract the submatrix [r0, r1) x [c0, c1) with reindexed (local)
/// coordinates. O(entries in the column range).
CscMat extract_block(const CscMat& m, Index r0, Index r1, Index c0, Index c1);

/// The block of a global matrix shaped like C = A*B that rank (i, j, k)'s
/// products cover: A-style rows by B-style columns. Symbolic3D and
/// BatchedSUMMA3D cut SummaOptions::mask with it.
CscMat product_block(const Grid3D& grid, const CscMat& global);

/// Each rank extracts its block from a replicated global matrix.
/// (Real deployments would scatter from parallel I/O; for experiments the
/// generator output is available everywhere and extraction is exact.)
DistMat3D distribute_a_style(const Grid3D& grid, const CscMat& global);
DistMat3D distribute_b_style(const Grid3D& grid, const CscMat& global);

/// The nrows x ncols matrix holding the entries of `blocks`, block b placed
/// with its (0, 0) at global (row, col) = origins[b]. Columns come out
/// sorted with duplicate rows summed by +, as CscMat::from_triples gives
/// them, and explicit zeros stay. Blocks are copied column by column in
/// ascending row origin, so sorted blocks with disjoint rectangles need no
/// sort; a column that does not come out strictly ascending (unsorted
/// blocks, duplicate rows) is sorted and summed. A block outside the matrix,
/// two overlapping rectangles, or an entry outside the matrix fail a
/// CASP_CHECK.
CscMat assemble_blocks(Index nrows, Index ncols,
                       std::span<const CscView> blocks,
                       std::span<const std::pair<Index, Index>> origins);

/// Collective over the grid: every rank gets the whole distributed matrix,
/// with the contract of assemble_blocks. Each rank allgathers its block's
/// CSC wire image and its (rows.start, cols.start) origin, so any layout
/// whose rectangles tile the matrix works: A-style, B-style, and C as
/// batched_summa3d leaves it (fiber-split columns at l > 1). MCL gathers
/// its iterate with it; the traffic goes to steps::kGather.
CscMat gather_dist(Grid3D& grid, const DistMat3D& dist);

/// A block of a distributed matrix with its (0, 0) at the global
/// (row, col) `origin`.
struct PlacedBlock {
  CscMat block;
  std::pair<Index, Index> origin;
};

/// The nrows x ncols matrix on world rank `root` only, from each rank's
/// list of placed blocks (any number per rank; together they tile the
/// matrix, with the contract of assemble_blocks). Each other rank sends its
/// origins and one wire image per block to the root as one message, and
/// only the root assembles. Every other rank returns an empty (0 x 0)
/// matrix. The service gathers each SpGEMM job's C this way, from the
/// batch pieces every rank kept.
CscMat gather_dist(Grid3D& grid, Index nrows, Index ncols,
                   std::span<const PlacedBlock> mine, int root);

/// The parts + 1 boundaries of an equal-flops cut of flops.size() indices:
/// boundary m is the first index whose prefix sum reaches m/parts of the
/// total, so a slice may be empty. All-zero flops keep the part_low split.
std::vector<Index> equal_flops_cut(std::span<const Index> flops, Index parts);

/// Collective over the whole grid: moves A's columns and B's rows along the
/// fiber so each layer slice of every inner part carries an equal share
/// (equal_flops_cut) of f(t) = nnz(A(:,t)) * nnz(B(t,:)), from any input
/// slices that agree across A and B. C's layout is unchanged. Traffic goes
/// to steps::kInnerBalance; counters summa.layer_flops_max_in and
/// summa.layer_flops_max give the heaviest layer before and after.
std::pair<DistMat3D, DistMat3D> rebalance_inner(Grid3D& grid,
                                                const DistMat3D& a,
                                                const DistMat3D& b);

}  // namespace casp
