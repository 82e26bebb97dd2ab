// Checkpoint resume: rebuild one rank's block of C from the saved pieces'
// global coordinates, whatever grid wrote them.
//
// The per-rank "summa" snapshots written by batched_summa3d carry, for each
// emitted batch piece, its grid-independent global coordinates (rows x
// cols of C it covers) alongside the piece matrix. The union of every
// writer rank's saved pieces is a valid partial C in global coordinates,
// so a relaunch on the same grid, a shrunk one or a regrown one resumes
// the same way.
//
// redistribute_for_grid() scans a checkpoint directory, takes every writer
// rank's newest valid snapshot for the job, and builds one rank's
// ResumeCache: the saved pieces that intersect the rank's window of C plus
// a per-column covered-row tally over that window. Because the pieces of
// one job tile C disjointly (each (row, col) of C lives in exactly one
// writer's piece of one batch), a column is fully recovered iff its tally
// equals the window's row count — an exact, grid-independent test. The
// relaunched job then asks its cache batch by batch: a batch whose columns
// every rank has covered is emitted from cached values (bit-exact — every
// value is copied, never recomputed) and a batch that is not is computed.
// See DESIGN.md §5j.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sparse/csc_mat.hpp"

namespace casp::ckpt {

/// Scope under which batched_summa3d files its checkpoints
/// (`<dir>/summa-<key>-r<rank>-g<gen>.ckpt`, checkpoint.hpp).
inline constexpr const char* kSummaCkptScope = "summa";

/// On-disk per-piece record of the "summa" snapshot's "piece_meta" array:
/// the piece's global coordinates. Defined here — next to the reader — so
/// the writer in batched_summa3d and redistribute_for_grid share one
/// layout.
struct SummaPieceMeta {
  Index row_start;  ///< global rows covered: [row_start, row_start+count)
  Index row_count;
  Index col_start;  ///< global cols covered: [col_start, col_start+count)
  Index col_count;
};

/// A block [row0, row1) x [col0, col1) of C in global coordinates.
struct Window {
  Index row0 = 0;
  Index row1 = 0;
  Index col0 = 0;
  Index col1 = 0;
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

/// One rank's view of a job's recovered output: the saved pieces that
/// intersect its window of C. Built by each rank from the checkpoint
/// directory (redistribute_for_grid); ranks agree on each batch's
/// coverage by consensus before acting on it.
class ResumeCache {
 public:
  ResumeCache() = default;
  explicit ResumeCache(Window window);

  bool empty() const { return pieces_.empty(); }
  /// The newest generation a kept piece came from; -1 while empty.
  std::int64_t generation() const { return generation_; }

  /// Keep `piece`, saved in `generation`, if it intersects the window;
  /// a piece outside it is dropped. Pieces must tile C disjointly (the
  /// batched_summa3d emission invariant); malformed pieces throw.
  void add_piece(CachedPiece piece, std::int64_t generation = -1);

  /// True iff every global column in [c0, c1) lies in the window and is
  /// fully covered there (all of the window's rows recovered).
  bool cols_covered(Index c0, Index c1) const;

  /// Assemble the window's rows x [c0, c1) block of C from the kept
  /// pieces, reindexed to local coordinates with sorted columns. Values
  /// are copied bit-exactly from the saved pieces. The caller is
  /// responsible for only extracting covered columns (cols_covered);
  /// uncovered entries are simply absent from the result.
  CscMat extract(Index c0, Index c1) const;

 private:
  Window window_;
  std::int64_t generation_ = -1;
  std::vector<CachedPiece> pieces_;
  /// covered_rows_[c - col0] == row1 - row0 iff column c is recovered.
  std::vector<Index> covered_rows_;
};

/// Build the ResumeCache of `window` for `job_id` from every writer rank's
/// newest valid "summa" generation under `dir`, resolved against the
/// generations it inherits from. Snapshots from any grid shape contribute,
/// but only those of the grid that wrote the globally newest generation;
/// torn or mismatched files are skipped. Returns an empty cache when the
/// directory holds nothing usable (the job then computes every batch).
ResumeCache redistribute_for_grid(const std::string& dir,
                                  const std::string& job_id, Window window);

}  // namespace casp::ckpt
