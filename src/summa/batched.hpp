// BatchedSUMMA3D (Algorithm 4) — the paper's primary contribution.
//
// When the unmerged output would not fit in memory, B (and hence C) is
// processed in b column batches. The batch count comes from the symbolic
// step; the batch columns are chosen *block-cyclically* with l blocks per
// batch (Fig. 1(i)) so that after AllToAll-Fiber every layer merges an
// equal share — a plain block split would leave Merge-Fiber imbalanced.
// At l > 1 the l*b blocks are cut by Symbolic3D's per-column counts
// (equal_flops_cut), not by index range, so the shares are equal in work
// on skewed inputs too (DESIGN.md §5o).
// Each finished batch is handed to the application through a callback
// (prune it, write it to disk, feed it to a matching pass, ...) and can be
// discarded; keeping the concatenated C is optional and only sensible when
// it fits.
//
// Eq. 2 picks b from *estimates*; when a batch still overruns the enforced
// budget (opts.memory), the adaptive re-batch protocol recovers instead of
// aborting: the batch runs inside a MemoryTracker probe window, ranks
// allreduce an overrun flag at the batch boundary, and on consensus the
// failed batch's partial state is released and the remaining work re-runs
// at double the batch count. The cut's nesting property (block t of l*b
// == blocks 2t, 2t+1 of 2*l*b, for equal_flops_cut as for part_low) makes
// the recovered output bit-identical to the unconstrained run no matter
// where splits happen.
#pragma once

#include <functional>
#include <optional>

#include "grid/dist.hpp"
#include "grid/grid3d.hpp"
#include "summa/symbolic3d.hpp"

namespace casp {

/// Where one rank's piece of a finished batch lives globally.
/// Under adaptive re-batching both fields describe the *effective*
/// granularity at emission time: indices stay unique and strictly
/// ascending across splits (a failed batch bi at granularity g re-emerges
/// as batches 2*bi, 2*bi+1 at granularity 2g).
struct BatchInfo {
  Index batch_index = 0;
  Index num_batches = 1;
  /// Full dimensions of the product C.
  Index global_nrows = 0;
  Index global_ncols = 0;
  /// Global rows covered by the local piece (same for all batches).
  LocalRange global_rows;
  /// Global columns covered by the local piece: contiguous, because a
  /// rank's share of batch i is exactly block (i + layer*b) of the
  /// (l*b)-way block-cyclic split of its B column part. At l > 1 the
  /// blocks follow the fiber split, not part_low: read C's columns from
  /// here, never from a_style_col_range.
  LocalRange global_cols;
};

/// Called on every rank once per batch with that rank's merged, sorted
/// piece of C[batch]. The piece may be moved from.
using BatchCallback = std::function<void(CscMat&& local_c, const BatchInfo&)>;

struct BatchedResult {
  /// Concatenated output; empty if keep_output=false. Its rows are
  /// A-style; at l > 1 its columns are the layer's part of the fiber
  /// split, so they are A-style only when Symbolic3D did not run.
  DistMat3D c;
  /// What the symbolic step measured/decided.
  SymbolicResult symbolic;
  /// Initial batch count (Eq. 2's answer, or force_batches).
  Index batches = 1;
  /// Effective batch count the run finished at — larger than `batches`
  /// when adaptive re-batching had to split (each split doubles it).
  Index final_batches = 1;
  /// Number of overrun-consensus events that forced a split. Mirrored in
  /// the run report as the `summa.rebatch_events` counter.
  Index rebatch_events = 0;
  /// True when SummaOptions::pause_after_batches stopped the run at a batch
  /// boundary with batches still outstanding. A forced checkpoint holds all
  /// emitted progress; `c` is left empty. Re-running the job against the
  /// same checkpoint directory fast-forwards past the emitted prefix.
  bool paused = false;
};

/// The checkpoint job identity batched_summa3d stamps into its snapshots
/// (ckpt scope "summa", see ckpt/redistribute.hpp). Built from global facts
/// only — dimensions, *global* nonzero counts, and the caller's tag — never
/// from the grid shape or local partitions, so a job relaunched on a shrunk
/// survivor grid still matches the snapshots the full grid wrote. The
/// service's degraded-resume path rebuilds the id from the replicated
/// inputs to locate a job's checkpoints without its DistMat3D views. A
/// masked product (SummaOptions::mask) folds in a "masked" tag and the
/// mask's nnz, so its snapshots never meet those of the unmasked product
/// of the same operands; an unmasked id is unchanged by the parameter.
std::string summa_ckpt_job_id(Index rows, Index inner, Index cols,
                              Index global_nnz_a, Index global_nnz_b,
                              const std::string& tag,
                              std::optional<Index> mask_nnz = std::nullopt);

/// Collective over the whole grid. `a` must be A-style distributed and `b`
/// B-style distributed (see grid/dist.hpp); inner dimensions must agree.
/// At l > 1 it first moves the inner dimension's layer slices to
/// equal-flops boundaries (rebalance_inner), and after Symbolic3D it cuts
/// C's columns into equal-work layer slices (the fiber split, traffic in
/// steps::kFiberBalance, counters summa.fiber_nnz_max_in and
/// summa.fiber_nnz_max). C is A-style in its rows only.
/// total_memory: aggregate byte budget M across all ranks (0 = unlimited).
/// When opts.memory is set, per-rank allocations are enforced against it.
template <typename SR = PlusTimes>
BatchedResult batched_summa3d(Grid3D& grid, const DistMat3D& a,
                              const DistMat3D& b, Bytes total_memory,
                              const SummaOptions& opts = {},
                              const BatchCallback& on_batch = nullptr,
                              bool keep_output = true);

}  // namespace casp
