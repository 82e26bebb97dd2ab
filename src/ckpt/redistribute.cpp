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
namespace {

/// True iff rows [r, r + nr) x cols [c, c + nc) meet `w`.
bool meets(const Window& w, Index r, Index nr, Index c, Index nc) {
  return r < w.row1 && r + nr > w.row0 && c < w.col1 && c + nc > w.col0;
}

}  // namespace

ResumeCache::ResumeCache(Window window) : window_(window) {
  CASP_CHECK_MSG(0 <= window.row0 && window.row0 <= window.row1 &&
                     0 <= window.col0 && window.col0 <= window.col1,
                 "ResumeCache: malformed window");
  covered_rows_.assign(static_cast<std::size_t>(window.col1 - window.col0),
                       0);
}

void ResumeCache::add_piece(CachedPiece piece, std::int64_t generation) {
  CASP_CHECK_MSG(piece.row_start >= 0 && piece.row_count >= 0 &&
                     piece.col_start >= 0 && piece.col_count >= 0,
                 "ResumeCache: piece with negative coordinates");
  CASP_CHECK_MSG(piece.piece.nrows() == piece.row_count &&
                     piece.piece.ncols() == piece.col_count,
                 "ResumeCache: piece matrix does not match its coordinates");
  if (!meets(window_, piece.row_start, piece.row_count, piece.col_start,
             piece.col_count))
    return;
  const Index rows =
      std::min(window_.row1, piece.row_start + piece.row_count) -
      std::max(window_.row0, piece.row_start);
  const Index c0 = std::max(window_.col0, piece.col_start);
  const Index c1 = std::min(window_.col1, piece.col_start + piece.col_count);
  for (Index c = c0; c < c1; ++c)
    covered_rows_[static_cast<std::size_t>(c - window_.col0)] += rows;
  generation_ = std::max(generation_, generation);
  pieces_.push_back(std::move(piece));
}

bool ResumeCache::cols_covered(Index c0, Index c1) const {
  if (c0 < window_.col0 || c1 > window_.col1) return false;
  for (Index c = c0; c < c1; ++c) {
    // Exact equality, not >=: pieces of one job tile C disjointly, so a
    // tally above the window's rows means the directory mixes incompatible
    // piece sets for this column — extraction would double entries.
    // Refusing coverage degrades to recomputation, never to wrong values.
    if (covered_rows_[static_cast<std::size_t>(c - window_.col0)] !=
        window_.row1 - window_.row0)
      return false;
  }
  return true;
}

CscMat ResumeCache::extract(Index c0, Index c1) const {
  CASP_CHECK_MSG(window_.col0 <= c0 && c0 <= c1 && c1 <= window_.col1,
                 "ResumeCache::extract: columns outside the window");
  const Index r0 = window_.row0, r1 = window_.row1;
  TripleMat triples(r1 - r0, c1 - c0);
  for (const CachedPiece& p : pieces_) {
    const Index pc1 = p.col_start + p.col_count;
    if (pc1 <= c0 || p.col_start >= c1) continue;
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
                                  const std::string& job_id, Window window) {
  namespace fs = std::filesystem;
  ResumeCache cache(window);
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec) || ec) return cache;

  // Which writer ranks ever saved this job here? The filenames carry the
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

  // Each writer's newest valid snapshot (load_all filters the job id and
  // skips torn files and every generation built on one), reduced to its
  // grid facts and the pieces that meet the window: one writer's files are
  // held at a time.
  struct Candidate {
    std::int64_t generation = -1;
    std::uint64_t grid_ranks = 0;
    std::uint64_t grid_layers = 0;
    std::vector<CachedPiece> pieces;
  };
  std::vector<Candidate> candidates;
  for (int r : ranks) {
    Checkpointer ck(dir, r, 1);
    std::vector<LoadedSnapshot> loaded = ck.load_all(kSummaCkptScope, job_id);
    if (loaded.empty()) continue;
    const Snapshot& snap = loaded.front().snap;
    // Snapshots without grid facts are from another writer and carry no
    // usable coordinates.
    if (!snap.has("grid_ranks") || !snap.has("grid_layers") ||
        !snap.has("piece_meta"))
      continue;
    Candidate cand{loaded.front().generation, snap.u64("grid_ranks"),
                   snap.u64("grid_layers"), {}};
    const std::vector<SummaPieceMeta> metas =
        snap.array<SummaPieceMeta>("piece_meta");
    const std::uint64_t n =
        std::min<std::uint64_t>(snap.u64("pieces"), metas.size());
    for (std::uint64_t k = 0; k < n; ++k) {
      const SummaPieceMeta& pm = metas[static_cast<std::size_t>(k)];
      if (!meets(window, pm.row_start, pm.row_count, pm.col_start,
                 pm.col_count))
        continue;
      cand.pieces.push_back(CachedPiece{
          pm.row_start, pm.row_count, pm.col_start, pm.col_count,
          snap.matrix("piece" + std::to_string(k))});
    }
    candidates.push_back(std::move(cand));
  }
  if (candidates.empty()) return cache;

  // A directory can hold snapshots from several grid epochs of the same job
  // (a job shrunk twice leaves the first degraded grid's saves next to the
  // original's). Mixing epochs could overlap pieces, so keep only the epoch
  // of the globally newest generation — a resumed run saves what it
  // recovered under its own grid before it computes, so the newest epoch
  // holds every batch an older one gave it.
  const Candidate* newest = &candidates.front();
  for (const Candidate& c : candidates)
    if (c.generation > newest->generation) newest = &c;
  const std::uint64_t epoch_ranks = newest->grid_ranks;
  const std::uint64_t epoch_layers = newest->grid_layers;
  for (Candidate& c : candidates) {
    if (c.grid_ranks != epoch_ranks || c.grid_layers != epoch_layers)
      continue;
    for (CachedPiece& piece : c.pieces)
      cache.add_piece(std::move(piece), c.generation);
  }
  return cache;
}

}  // namespace casp::ckpt
