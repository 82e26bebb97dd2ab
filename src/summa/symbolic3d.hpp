// Distributed symbolic step (Algorithm 3).
//
// Runs the same stage loop as SUMMA2D per layer but with LocalSymbolic
// (nonzero counting) instead of the numeric multiply, then AllReduceMax
// over the whole grid to find the most loaded process. Its per-process
// unmerged output count, the available memory M, and the r bytes/nonzero
// constant give the batch count b (Alg. 3 line 12 / Eq. 2). Using the max
// rather than the average makes the choice robust to load imbalance: no
// process can exhaust its memory, at the cost of possibly more batches.
#pragma once

#include <vector>

#include "grid/grid3d.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/steps.hpp"

namespace casp {

struct SymbolicResult {
  /// Batch count needed so the per-batch unmerged output of the most
  /// loaded process fits in its memory share.
  Index batches = 1;
  /// Max over processes of the unmerged output nnz (sum over stages of the
  /// per-stage merged product nnz) for the *whole* multiplication.
  Index max_nnz_c = 0;
  Index max_nnz_a = 0;
  Index max_nnz_b = 0;
  /// Global totals (AllReduce-sum), reported for the experiments.
  Index total_unmerged_nnz = 0;
  Index total_flops = 0;
  /// This process's per-local-output-column unmerged nnz, summed over the
  /// SUMMA stages (so it upper-bounds any single stage's column). Feed it
  /// to SummaOptions::symbolic_col_nnz — sliced per batch with the same
  /// column ranges as the B batch split — so the numeric kernels pre-size
  /// their hash tables. sum(col_nnz) equals the my_unmerged term behind
  /// max_nnz_c.
  std::vector<Index> col_nnz;
};

/// Eq. (2), Alg. 3 line 12: b = r*maxnnzC / (M/p - r*(maxnnzA + maxnnzB)),
/// with M/p real-valued. `max_input_bytes` is r*(maxnnzA + maxnnzB) and
/// `max_unmerged_bytes` is r*maxnnzC, both of the most loaded process.
/// Returns 1 for an unlimited budget (total_memory == 0) and 0 when the
/// denominator is non-positive: the inputs alone fill the per-process
/// share and no batch count fits. Symbolic3D, admission and the cost
/// model all size b here, so they agree.
Index eq2_batches(Bytes total_memory, Index p, double max_input_bytes,
                  double max_unmerged_bytes);

/// Eq. (2) applied to a Symbolic3D pass's maxima for p processes sharing
/// total_memory: the b symbolic3d sets. Throws MemoryError when even the
/// inputs do not fit. batched_summa3d sizes a carried result with it.
Index symbolic_batches(const SymbolicResult& sym, Bytes total_memory,
                       Index p);

/// Collective over the whole grid. total_memory is M, the aggregate memory
/// in bytes across all p processes (0 = unlimited -> b = 1). Throws
/// MemoryError when even the inputs do not fit (denominator of Eq. 2
/// non-positive). With opts.mask set, every count is of the masked
/// product, each rank's restricted to its product_block of the mask
/// (local_a and local_b must then be A-style and B-style distributed).
SymbolicResult symbolic3d(Grid3D& grid, const CscMat& local_a,
                          const CscMat& local_b, Bytes total_memory,
                          const SummaOptions& opts = {});

}  // namespace casp
