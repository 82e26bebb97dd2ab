// Step names and options shared by the SUMMA family.
//
// The seven major steps of BatchedSUMMA3D (Sec. IV-B). Timing and traffic
// are recorded under these exact labels, and every bench reports the same
// breakdown the paper's figures use.
#pragma once

#include <span>
#include <string>

#include "common/memory_tracker.hpp"
#include "common/types.hpp"
#include "kernels/merge.hpp"
#include "kernels/spgemm.hpp"

namespace casp {

namespace ckpt {
class Checkpointer;
class ResumeCache;
}  // namespace ckpt

struct SymbolicResult;  // summa/symbolic3d.hpp

namespace steps {
inline constexpr const char* kSymbolic = "Symbolic";
inline constexpr const char* kABcast = "A-Bcast";
inline constexpr const char* kBBcast = "B-Bcast";
inline constexpr const char* kLocalMultiply = "Local-Multiply";
inline constexpr const char* kMergeLayer = "Merge-Layer";
inline constexpr const char* kAllToAllFiber = "AllToAll-Fiber";
inline constexpr const char* kMergeFiber = "Merge-Fiber";

inline constexpr const char* kAll[] = {
    kSymbolic,   kABcast,        kBBcast,     kLocalMultiply,
    kMergeLayer, kAllToAllFiber, kMergeFiber,
};

/// Not one of the paper's seven steps (hence not in kAll): the per-batch
/// overrun-consensus allreduce of the adaptive re-batch protocol. Only
/// present when a memory tracker enforces the budget.
inline constexpr const char* kRebatchConsensus = "Rebatch-Consensus";

/// Also outside the paper's seven steps: the resume-consensus collective
/// run once at job start when checkpointing is enabled, where ranks agree
/// on the common restore point (ranks may hold generations one save apart,
/// since a crash is not a barrier).
inline constexpr const char* kCkptResume = "Ckpt-Resume";

/// Also outside the seven steps: rebalance_inner's equal-flops layer cut
/// of the inner dimension (grid/dist.hpp), once per job when l > 1.
inline constexpr const char* kInnerBalance = "Inner-Balance";

/// Also outside the seven steps: batched_summa3d's sum of Symbolic3D's
/// per-column counts over the ranks sharing a B column part, which cuts
/// the fiber split (DESIGN.md §5o); once per job when l > 1.
inline constexpr const char* kFiberBalance = "Fiber-Balance";

/// Also outside the seven steps: gather_dist's gather of every rank's
/// block to one root, or to every rank (grid/dist.hpp), once per gathered
/// matrix.
inline constexpr const char* kGather = "Gather";
}  // namespace steps

/// The two local-kernel pipelines the paper compares (Sec. IV-D, Table VII):
/// this paper's unsorted-hash Local-Multiply and merges, Merge-Fiber
/// emitting the one final sort's order, and the hybrid Local-Multiply with
/// sorted-heap merges of prior work [13, 25].
enum class Pipeline { kHash, kHybrid };

/// Knobs for the SUMMA family. Defaults are this paper's configuration;
/// pipeline = kHybrid reproduces the prior-work pipeline for the Fig. 15 /
/// Table VII comparisons.
struct SummaOptions {
  Pipeline pipeline = Pipeline::kHash;
  SpGemmKind local_kind() const {
    return pipeline == Pipeline::kHash ? SpGemmKind::kUnsortedHash
                                       : SpGemmKind::kHybrid;
  }
  MergeKind merge_kind() const {
    return pipeline == Pipeline::kHash ? MergeKind::kUnsortedHash
                                       : MergeKind::kSortedHeap;
  }
  /// Sparsity-aware A exchange (summa/sparse_comm.hpp): replace the dense
  /// A-Bcast with a need-list request round plus need-only replies shipped
  /// as zero-copy subviews. Results are bit-identical either way; the
  /// traffic ledger's shipped-vs-logical columns expose the savings. B
  /// stays dense (its dead weight is row-filtered, not subview-shaped).
  bool sparse_comm = false;
  /// Per-local-output-column unmerged nnz from a prior symbolic pass
  /// (SymbolicResult::col_nnz, sliced per batch); when non-empty, the
  /// local kernels pre-size their hash tables from it instead of growing
  /// from the flops upper bound. Borrowed, not owned.
  std::span<const Index> symbolic_col_nnz = {};
  /// OpenMP threads for local kernels within each rank.
  int threads = 1;
  /// Batched algorithm and Symbolic3D: compute C = (A*B) .* pattern(mask)
  /// instead of A*B. The global mask has C's shape and sorted columns;
  /// each rank restricts its Local-Multiply and its Symbolic counts to its
  /// own block of it (the rows of its A block, the columns of the batch),
  /// so no intermediate exceeds the mask. Must be set uniformly across
  /// ranks. Borrowed, not owned.
  const CscMat* mask = nullptr;
  /// Optional per-rank memory budget enforcement. Not owned.
  MemoryTracker* memory = nullptr;
  /// Batched algorithm only: override the symbolic batch count (0 = let
  /// Symbolic3D decide). Used by the (l, b) sweep experiments.
  Index force_batches = 0;
  /// Batched algorithm only: this rank's Symbolic3D result for this very
  /// grid and input layout, from an earlier pass (the service's admission
  /// estimate). batched_summa3d then skips symbolic3d and applies Eq. (2)
  /// to its maxima (symbolic_batches). Ignored when force_batches is set.
  /// Must be set uniformly across ranks. Borrowed, not owned.
  const SymbolicResult* symbolic = nullptr;
  /// Batched algorithm only, and only with opts.memory set: when a batch
  /// overruns the budget, reach consensus at the batch boundary and re-run
  /// the remaining work at double the batch count instead of failing the
  /// job. The column cut's nesting property keeps the recovered output
  /// bit-identical to the unconstrained run (see batched.cpp).
  bool adaptive_rebatch = true;
  /// Batch-boundary checkpointing (batched_summa3d only). Not owned; null
  /// or a disabled Checkpointer turns the feature off with zero hot-path
  /// cost. Must be configured uniformly across ranks (enabled-ness and
  /// cadence), because resuming runs a consensus collective.
  ckpt::Checkpointer* ckpt = nullptr;
  /// Extra disambiguator mixed into the checkpoint job identity — callers
  /// nesting batched SUMMA inside an outer loop (MCL sets
  /// "mcl-iter-<k>") use it so a stale snapshot from another iteration
  /// can never be resumed.
  std::string ckpt_job_tag;
  /// Redistributed checkpoint state from a *previous grid shape*
  /// (ckpt::redistribute_for_grid). When set, every batch whose output
  /// columns the cache fully covers is emitted from the cached pieces
  /// instead of recomputed — the degraded-grid resume path. Must be set
  /// uniformly across ranks (coverage is agreed by consensus per batch).
  /// Borrowed, not owned.
  const ckpt::ResumeCache* resume = nullptr;
  /// Batched algorithm only: when > 0, stop after this many freshly
  /// *computed* batches (cache-recovered batches don't count) at the next
  /// batch boundary — force a checkpoint of everything emitted so far, set
  /// BatchedResult::paused, and return without assembling the kept output.
  /// The service's regrow path uses this to park an elastic job so the grid
  /// can change shape between attempts. Must be set uniformly across ranks
  /// (the pause decision reads only SPMD-consistent state).
  Index pause_after_batches = 0;
};

}  // namespace casp
