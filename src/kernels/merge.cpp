#include "kernels/merge.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "kernels/accumulator.hpp"
#include "kernels/output.hpp"
#include "sparse/serialize.hpp"

namespace casp {

const char* to_string(MergeKind kind) {
  switch (kind) {
    case MergeKind::kUnsortedHash: return "unsorted-hash-merge";
    case MergeKind::kSortedHeap: return "sorted-heap-merge";
  }
  return "?";
}

namespace {

using HeapItem = std::pair<Index, std::size_t>;  // (row, piece index)

/// Column j as a k-way heap merge of the pieces' sorted columns, into
/// (out_rows, out_vals); returns its entry count. `heap` and `pos` are the
/// caller's per-thread scratch, reused across columns.
template <typename SR>
Index heap_merge_column(std::span<const CscConstRef> pieces, Index j,
                        std::vector<HeapItem>& heap,
                        std::vector<std::size_t>& pos, Index* out_rows,
                        Value* out_vals) {
  heap.clear();
  pos.assign(pieces.size(), 0);
  for (std::size_t s = 0; s < pieces.size(); ++s) {
    if (pieces[s].col_nnz(j) > 0)
      heap.emplace_back(pieces[s].col_rowids(j)[0], s);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  Index cnt = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [row, s] = heap.back();
    heap.pop_back();
    const Value v = pieces[s].col_vals(j)[pos[s]];
    if (cnt > 0 && out_rows[cnt - 1] == row) {
      out_vals[cnt - 1] = SR::add(out_vals[cnt - 1], v);
    } else {
      out_rows[cnt] = row;
      out_vals[cnt] = v;
      ++cnt;
    }
    if (++pos[s] < static_cast<std::size_t>(pieces[s].col_nnz(j))) {
      heap.emplace_back(pieces[s].col_rowids(j)[pos[s]], s);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
  }
  return cnt;
}

/// Merges every column into its slice of `out`, with one accumulator side
/// per thread, and returns each column's merged nnz. Without `out` (hash
/// merges only) it only counts, inserting the rows into the same side.
/// bound[j]: column j's input nnz.
template <typename SR, typename Rows>
std::vector<Index> merge_columns(std::span<const CscConstRef> pieces,
                                 MergeKind kind, int threads, bool sort_output,
                                 const std::vector<Index>& bound,
                                 CscSlices* out) {
  std::vector<Index> counts(bound.size(), 0);
  const auto ncols = static_cast<Index>(bound.size());
#if defined(CASP_HAVE_OPENMP)
#pragma omp parallel num_threads(std::max(1, threads))
#else
  (void)threads;
#endif
  {
    Rows table(pieces.front().nrows());
    // Per-thread scratch for the sorted-emit (heap) path, reused across all
    // columns this thread processes instead of reallocated per column.
    std::vector<HeapItem> heap;
    std::vector<std::size_t> pos;
#if defined(CASP_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 32)
#endif
    for (Index j = 0; j < ncols; ++j) {
      const Index cap =
          out != nullptr ? out->col_capacity(j) : bound[static_cast<std::size_t>(j)];
      if (cap == 0) continue;
      Index* out_rows = out != nullptr ? out->col_rowids(j) : nullptr;
      Value* out_vals = out != nullptr ? out->col_vals(j) : nullptr;
      Index cnt = 0;
      if (kind == MergeKind::kUnsortedHash) {
        table.require(cap);
        if (out == nullptr) {
          for (const CscConstRef& m : pieces) table.insert_all(m.col_rowids(j));
        } else {
          for (const CscConstRef& m : pieces)
            table.add_all(m.col_rowids(j), m.col_vals(j));
        }
        cnt = table.size();
        if (out == nullptr)
          table.reset();
        else if (sort_output)
          table.emit_sorted(out_rows, out_vals);
        else
          table.emit(out_rows, out_vals);
      } else {
        cnt = heap_merge_column<SR>(pieces, j, heap, pos, out_rows, out_vals);
      }
      counts[static_cast<std::size_t>(j)] = cnt;
    }
  }
  return counts;
}

/// Each output column's upper bound: its total input nnz.
std::vector<Index> column_bounds(std::span<const CscConstRef> pieces) {
  CASP_CHECK(!pieces.empty());
  const CscConstRef& first = pieces.front();
  std::vector<Index> bound(static_cast<std::size_t>(first.ncols()), 0);
  for (const CscConstRef& m : pieces) {
    CASP_CHECK_MSG(m.nrows() == first.nrows() && m.ncols() == first.ncols(),
                   "merge: shape mismatch");
    for (Index j = 0; j < m.ncols(); ++j)
      bound[static_cast<std::size_t>(j)] += m.col_nnz(j);
  }
  return bound;
}

/// merge_columns on the merge's accumulator side. kSortedHeap never
/// accumulates, so it keeps the (unallocated) hash side.
template <typename SR>
std::vector<Index> merge_pass(std::span<const CscConstRef> pieces,
                              MergeKind kind, int threads, bool sort_output,
                              const std::vector<Index>& bound, CscSlices* out) {
  const Index work = std::accumulate(bound.begin(), bound.end(), Index{0});
  if (kind == MergeKind::kUnsortedHash &&
      use_dense_rows(pieces.front().nrows(), work))
    return merge_columns<SR, DenseRows<SR>>(pieces, kind, threads, sort_output,
                                            bound, out);
  return merge_columns<SR, HashRows<SR>>(pieces, kind, threads, sort_output,
                                         bound, out);
}

}  // namespace

template <typename SR>
CscMat merge_matrices(std::span<const CscConstRef> pieces, MergeKind kind,
                      int threads, bool sort_output) {
  const std::vector<Index> bound = column_bounds(pieces);
  // C is written once, into exact arrays. One piece: a Gustavson column's
  // rows are unique, so its input count is its merged count. Several: a
  // counting pass first. A column that comes out shorter (a row repeated
  // within a piece, or the heap merge of prior work, which keeps the input
  // bound) is compacted.
  const bool count = pieces.size() > 1 && kind == MergeKind::kUnsortedHash;
  CscSlices out(pieces.front().nrows(),
                count ? merge_pass<SR>(pieces, kind, threads, false, bound, nullptr)
                      : bound);
  const std::vector<Index> counts =
      merge_pass<SR>(pieces, kind, threads, sort_output, bound, &out);
  return std::move(out).finish(counts);
}

template <typename SR>
std::vector<Payload> merge_matrices_wire(std::span<const CscConstRef> pieces,
                                         std::span<const Index> splits,
                                         MergeKind kind, int threads) {
  // Merge into upper-bound scratch, then compact into the wire images: the
  // compaction is the pack.
  const std::vector<Index> bound = column_bounds(pieces);
  CscSlices scratch(pieces.front().nrows(), bound);
  const std::vector<Index> counts =
      merge_pass<SR>(pieces, kind, threads, false, bound, &scratch);
  CscWireImages out(pieces.front().nrows(), splits, counts);
  for (Index j = 0; j < static_cast<Index>(counts.size()); ++j) {
    const Index cnt = counts[static_cast<std::size_t>(j)];
    std::copy_n(scratch.col_rowids(j), cnt, out.col_rowids(j));
    std::copy_n(scratch.col_vals(j), cnt, out.col_vals(j));
  }
  return std::move(out).finish(counts);
}

template CscMat merge_matrices<PlusTimes>(std::span<const CscConstRef>,
                                          MergeKind, int, bool);
template CscMat merge_matrices<MinPlus>(std::span<const CscConstRef>,
                                        MergeKind, int, bool);
template CscMat merge_matrices<MaxMin>(std::span<const CscConstRef>,
                                       MergeKind, int, bool);
template CscMat merge_matrices<OrAnd>(std::span<const CscConstRef>, MergeKind,
                                      int, bool);

template std::vector<Payload> merge_matrices_wire<PlusTimes>(
    std::span<const CscConstRef>, std::span<const Index>, MergeKind, int);
template std::vector<Payload> merge_matrices_wire<MinPlus>(
    std::span<const CscConstRef>, std::span<const Index>, MergeKind, int);
template std::vector<Payload> merge_matrices_wire<MaxMin>(
    std::span<const CscConstRef>, std::span<const Index>, MergeKind, int);
template std::vector<Payload> merge_matrices_wire<OrAnd>(
    std::span<const CscConstRef>, std::span<const Index>, MergeKind, int);

}  // namespace casp
