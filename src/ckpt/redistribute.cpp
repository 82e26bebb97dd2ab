#include "ckpt/redistribute.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <set>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "common/error.hpp"
#include "sparse/triple_mat.hpp"

namespace casp::ckpt {

ResumeCache::ResumeCache(Index global_rows, Index global_cols)
    : global_rows_(global_rows), global_cols_(global_cols) {
  CASP_CHECK_MSG(global_rows >= 0 && global_cols >= 0,
                 "ResumeCache: negative global shape");
  covered_rows_.assign(static_cast<std::size_t>(global_cols), 0);
}

void ResumeCache::add_piece(CachedPiece piece) {
  CASP_CHECK_MSG(
      piece.row_start >= 0 && piece.row_count >= 0 && piece.col_start >= 0 &&
          piece.col_count >= 0 &&
          piece.row_start + piece.row_count <= global_rows_ &&
          piece.col_start + piece.col_count <= global_cols_,
      "ResumeCache: piece outside the declared global shape");
  CASP_CHECK_MSG(piece.piece.nrows() == piece.row_count &&
                     piece.piece.ncols() == piece.col_count,
                 "ResumeCache: piece matrix does not match its coordinates");
  for (Index c = piece.col_start; c < piece.col_start + piece.col_count; ++c)
    covered_rows_[static_cast<std::size_t>(c)] += piece.row_count;
  pieces_.push_back(std::move(piece));
}

bool ResumeCache::cols_covered(Index c0, Index c1) const {
  if (c0 < 0 || c1 > global_cols_) return false;
  for (Index c = c0; c < c1; ++c) {
    // Exact equality, not >=: pieces of one job tile C disjointly, so a
    // tally above global_rows means the directory mixes incompatible piece
    // sets for this column — extraction would double entries. Refusing
    // coverage degrades to recomputation, never to wrong values.
    if (covered_rows_[static_cast<std::size_t>(c)] != global_rows_)
      return false;
  }
  return true;
}

CscMat ResumeCache::extract(Index r0, Index r1, Index c0, Index c1) const {
  CASP_CHECK_MSG(0 <= r0 && r0 <= r1 && r1 <= global_rows_ && 0 <= c0 &&
                     c0 <= c1 && c1 <= global_cols_,
                 "ResumeCache::extract: range outside the global shape");
  TripleMat triples(r1 - r0, c1 - c0);
  for (const CachedPiece& p : pieces_) {
    const Index pr1 = p.row_start + p.row_count;
    const Index pc1 = p.col_start + p.col_count;
    if (pr1 <= r0 || p.row_start >= r1 || pc1 <= c0 || p.col_start >= c1)
      continue;
    const Index jlo = std::max(c0, p.col_start) - p.col_start;
    const Index jhi = std::min(c1, pc1) - p.col_start;
    for (Index j = jlo; j < jhi; ++j) {
      const Index gcol = p.col_start + j;
      const auto rows = p.piece.col_rowids(j);
      const auto vals = p.piece.col_vals(j);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const Index grow = p.row_start + rows[k];
        if (grow < r0 || grow >= r1) continue;
        triples.push_back(grow - r0, gcol - c0, vals[k]);
      }
    }
  }
  // from_triples canonicalizes (column-major sort, rows ascending) — the
  // same final order sort_final produces — and the disjoint-tiling
  // invariant means no duplicates exist to merge, so every value survives
  // bit-exactly.
  return CscMat::from_triples(std::move(triples));
}

ResumeCache redistribute_for_grid(const std::string& dir,
                                  const std::string& job_id) {
  namespace fs = std::filesystem;
  ResumeCache cache;
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec) || ec) return cache;

  // Which old ranks ever saved this job here? The filenames carry the
  // rank: <stem>-r<rank>-g<gen>.ckpt.
  std::set<int> ranks;
  const std::string prefix = job_file_stem(kSummaCkptScope, job_id) + "-r";
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    std::size_t end = prefix.size();
    while (end < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[end])))
      ++end;
    if (end == prefix.size()) continue;
    ranks.insert(std::stoi(name.substr(prefix.size(), end - prefix.size())));
  }

  // Newest valid snapshot per rank (load_all filters the job id and skips
  // torn files — the same fallback discipline as the per-rank path).
  struct Candidate {
    LoadedSnapshot loaded;
    std::uint64_t grid_ranks = 0;
    std::uint64_t grid_layers = 0;
  };
  std::vector<Candidate> candidates;
  for (int r : ranks) {
    Checkpointer ck(dir, r, 1);
    std::vector<LoadedSnapshot> loaded = ck.load_all(kSummaCkptScope, job_id);
    if (loaded.empty()) continue;
    Candidate cand{std::move(loaded.front()), 0, 0};
    const Snapshot& snap = cand.loaded.snap;
    // Snapshots without grid facts predate the redistributable format (or
    // are from another writer) and carry no usable coordinates.
    if (!snap.has("grid_ranks") || !snap.has("grid_layers") ||
        !snap.has("global_rows") || !snap.has("global_cols") ||
        !snap.has("piece_meta"))
      continue;
    cand.grid_ranks = snap.u64("grid_ranks");
    cand.grid_layers = snap.u64("grid_layers");
    candidates.push_back(std::move(cand));
  }
  if (candidates.empty()) return cache;

  // A directory can hold snapshots from several grid epochs of the same job
  // (a job shrunk twice leaves the first degraded grid's saves next to the
  // original's). Mixing epochs could overlap pieces, so keep only the epoch
  // of the globally newest generation — the latest writer re-checkpointed
  // all recovered progress under its own grid, so nothing is lost.
  const Candidate* newest = &candidates.front();
  for (const Candidate& c : candidates)
    if (c.loaded.generation > newest->loaded.generation) newest = &c;
  const std::uint64_t epoch_ranks = newest->grid_ranks;
  const std::uint64_t epoch_layers = newest->grid_layers;

  cache = ResumeCache(
      static_cast<Index>(newest->loaded.snap.u64("global_rows")),
      static_cast<Index>(newest->loaded.snap.u64("global_cols")));
  for (const Candidate& c : candidates) {
    if (c.grid_ranks != epoch_ranks || c.grid_layers != epoch_layers)
      continue;
    const Snapshot& snap = c.loaded.snap;
    const std::vector<SummaPieceMeta> metas =
        snap.array<SummaPieceMeta>("piece_meta");
    const std::uint64_t n =
        std::min<std::uint64_t>(snap.u64("pieces"), metas.size());
    for (std::uint64_t k = 0; k < n; ++k) {
      const SummaPieceMeta& pm = metas[static_cast<std::size_t>(k)];
      cache.add_piece(CachedPiece{pm.row_start, pm.row_count, pm.col_start,
                                  pm.col_count,
                                  snap.matrix("piece" + std::to_string(k))});
    }
  }
  return cache;
}

}  // namespace casp::ckpt
