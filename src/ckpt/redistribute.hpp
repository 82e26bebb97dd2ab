// Checkpoint redistribution: resume a batched SUMMA job on a DIFFERENT
// grid shape than the one that wrote the snapshots.
//
// The per-rank "summa" snapshots written by batched_summa3d carry, for each
// emitted batch piece, its grid-independent global coordinates (rows x
// cols of C it covers) alongside the piece matrix. When a rank dies for
// good, the survivors cannot use the per-rank resume path — rank r's new
// local ranges no longer match rank r's old pieces — but the union of ALL
// saved pieces is still a valid partial C in global coordinates.
//
// redistribute_for_grid() scans a checkpoint directory, takes every old
// rank's newest valid snapshot for the job, and builds a ResumeCache: the
// saved pieces plus a per-global-column covered-row tally. Because the
// pieces of one job tile C disjointly (each (row, col) of C lives in
// exactly one rank's piece of one batch), a column is fully recovered iff
// its covered-row tally equals C's row count — an exact, grid-independent
// test. The relaunched job (any q'×q'×l' grid) then asks the cache batch
// by batch: a batch whose output columns are all fully covered is emitted
// from cached values (bit-exact — every value is copied, never recomputed)
// and a batch that is not falls through to normal compute. See DESIGN.md
// §5j.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "sparse/csc_mat.hpp"

namespace casp::ckpt {

/// Scope under which batched_summa3d files its checkpoints
/// (`<dir>/summa-<key>-r<rank>-g<gen>.ckpt`, checkpoint.hpp).
inline constexpr const char* kSummaCkptScope = "summa";

/// On-disk per-piece record of the "summa" snapshot's "piece_meta" array.
/// Defined here — next to the reader — so the writer in batched_summa3d and
/// redistribute_for_grid share one layout. The global coordinates are the
/// grid-independent half: they let a different grid shape re-shard the
/// pieces; batch_index/num_batches are only meaningful to a same-grid
/// resume.
struct SummaPieceMeta {
  Index batch_index;
  Index num_batches;
  Index rebatch_events;  ///< cumulative re-batch count at emission time
  Index row_start;       ///< global rows covered: [row_start, row_start+count)
  Index row_count;
  Index col_start;       ///< global cols covered: [col_start, col_start+count)
  Index col_count;
};

/// One saved batch piece in global coordinates. `piece` uses local indices
/// within the ranges (row 0 of `piece` is global row `row_start`).
struct CachedPiece {
  Index row_start = 0;
  Index row_count = 0;
  Index col_start = 0;
  Index col_count = 0;
  CscMat piece;
};

/// Grid-independent view of a job's recovered output prefix. Built once on
/// the launcher thread and shared read-only by every rank of the relaunch
/// (SummaOptions::resume): coverage verdicts must be identical across
/// ranks, which sharing one cache object guarantees.
class ResumeCache {
 public:
  ResumeCache() = default;
  /// Declare C's global shape. Must be called before add_piece/finalize.
  ResumeCache(Index global_rows, Index global_cols);

  bool empty() const { return pieces_.empty(); }
  std::size_t piece_count() const { return pieces_.size(); }
  Index global_rows() const { return global_rows_; }
  Index global_cols() const { return global_cols_; }

  /// Register one saved piece. Pieces must tile C disjointly (the
  /// batched_summa3d emission invariant); out-of-range pieces throw.
  void add_piece(CachedPiece piece);

  /// True iff every global column in [c0, c1) is fully covered (all
  /// global_rows rows recovered). Identical on every rank sharing the
  /// cache, so it is safe to branch collectives on the verdict.
  bool cols_covered(Index c0, Index c1) const;

  /// Assemble the [r0, r1) x [c0, c1) block of C from the cached pieces,
  /// reindexed to local coordinates with sorted columns. Values are copied
  /// bit-exactly from the saved pieces. The caller is responsible for only
  /// extracting covered regions (cols_covered); uncovered entries are
  /// simply absent from the result.
  CscMat extract(Index r0, Index r1, Index c0, Index c1) const;

 private:
  Index global_rows_ = 0;
  Index global_cols_ = 0;
  std::vector<CachedPiece> pieces_;
  /// covered_rows_[c] == global_rows_ iff column c is fully recovered.
  std::vector<Index> covered_rows_;
};

/// Build a ResumeCache for `job_id` from every rank's newest valid "summa"
/// generation under `dir`, resolved against the generations it inherits
/// from. Snapshots from any grid shape contribute; torn or
/// mismatched files are skipped exactly like the per-rank fallback path.
/// Returns an empty cache when the directory holds nothing usable (the
/// relaunch then recomputes from scratch).
ResumeCache redistribute_for_grid(const std::string& dir,
                                  const std::string& job_id);

}  // namespace casp::ckpt
