#include "kernels/merge.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "kernels/accumulator.hpp"

namespace casp {

const char* to_string(MergeKind kind) {
  switch (kind) {
    case MergeKind::kUnsortedHash: return "unsorted-hash-merge";
    case MergeKind::kSortedHeap: return "sorted-heap-merge";
  }
  return "?";
}

namespace {

/// Merges every column into its slice [ub_ptr[j], ub_ptr[j+1]) of
/// rowids/vals, with one accumulator side per thread; counts[j] gets the
/// column's merged nnz.
template <typename SR, typename Rows>
void merge_columns(std::span<const CscConstRef> pieces, MergeKind kind,
                   int threads, bool sort_output,
                   const std::vector<Index>& ub_ptr, std::vector<Index>& rowids,
                   std::vector<Value>& vals, std::vector<Index>& counts) {
  const Index ncols = pieces.front().ncols();
#if defined(CASP_HAVE_OPENMP)
#pragma omp parallel num_threads(std::max(1, threads))
#else
  (void)threads;
#endif
  {
    Rows table(pieces.front().nrows());
    // Per-thread scratch for the sorted-emit (heap) path, reused across all
    // columns this thread processes instead of reallocated per column.
    using HeapItem = std::pair<Index, std::size_t>;  // (row, piece index)
    std::vector<HeapItem> heap;
    std::vector<std::size_t> pos;
#if defined(CASP_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 32)
#endif
    for (Index j = 0; j < ncols; ++j) {
      const Index cap = ub_ptr[static_cast<std::size_t>(j) + 1] -
                        ub_ptr[static_cast<std::size_t>(j)];
      if (cap == 0) continue;
      Index* out_rows = rowids.data() + ub_ptr[static_cast<std::size_t>(j)];
      Value* out_vals = vals.data() + ub_ptr[static_cast<std::size_t>(j)];
      Index cnt = 0;
      if (kind == MergeKind::kUnsortedHash) {
        table.require(cap);
        table.reset();
        for (const CscConstRef& m : pieces) {
          const auto rows = m.col_rowids(j);
          const auto mv = m.col_vals(j);
          for (std::size_t k = 0; k < rows.size(); ++k)
            table.accumulate(rows[k], mv[k]);
        }
        cnt = table.size();
        if (sort_output)
          table.emit_sorted(out_rows, out_vals);
        else
          table.emit(out_rows, out_vals);
      } else {
        // k-way heap merge over sorted input columns (min-heap maintained
        // manually on the hoisted vector).
        heap.clear();
        pos.assign(pieces.size(), 0);
        for (std::size_t s = 0; s < pieces.size(); ++s) {
          if (pieces[s].col_nnz(j) > 0)
            heap.emplace_back(pieces[s].col_rowids(j)[0], s);
        }
        std::make_heap(heap.begin(), heap.end(), std::greater<>{});
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
      }
      counts[static_cast<std::size_t>(j)] = cnt;
    }
  }
}

}  // namespace

template <typename SR>
CscMat merge_matrices(std::span<const CscConstRef> pieces, MergeKind kind,
                      int threads, bool sort_output) {
  CASP_CHECK(!pieces.empty());
  const Index nrows = pieces.front().nrows();
  const Index ncols = pieces.front().ncols();
  for (const CscConstRef& m : pieces)
    CASP_CHECK_MSG(m.nrows() == nrows && m.ncols() == ncols,
                   "merge: shape mismatch");

  // Upper bound per output column: total input entries in that column.
  std::vector<Index> ub_ptr(static_cast<std::size_t>(ncols) + 1, 0);
  for (Index j = 0; j < ncols; ++j) {
    Index ub = 0;
    for (const CscConstRef& m : pieces) ub += m.col_nnz(j);
    ub_ptr[static_cast<std::size_t>(j) + 1] = ub_ptr[static_cast<std::size_t>(j)] + ub;
  }
  std::vector<Index> rowids(static_cast<std::size_t>(ub_ptr.back()));
  std::vector<Value> vals(rowids.size());
  std::vector<Index> counts(static_cast<std::size_t>(ncols), 0);

  // kSortedHeap never accumulates, so it keeps the (unallocated) hash side.
  const bool dense = kind == MergeKind::kUnsortedHash &&
                     use_dense_rows(nrows, ub_ptr.back());
  if (dense)
    merge_columns<SR, DenseRows<SR>>(pieces, kind, threads, sort_output, ub_ptr,
                                     rowids, vals, counts);
  else
    merge_columns<SR, HashRows<SR>>(pieces, kind, threads, sort_output, ub_ptr,
                                    rowids, vals, counts);

  // Compact.
  std::vector<Index> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  for (Index j = 0; j < ncols; ++j)
    colptr[static_cast<std::size_t>(j) + 1] =
        colptr[static_cast<std::size_t>(j)] + counts[static_cast<std::size_t>(j)];
  std::vector<Index> out_rowids(static_cast<std::size_t>(colptr.back()));
  std::vector<Value> out_vals(out_rowids.size());
  for (Index j = 0; j < ncols; ++j) {
    const auto src = static_cast<std::size_t>(ub_ptr[static_cast<std::size_t>(j)]);
    const auto dst = static_cast<std::size_t>(colptr[static_cast<std::size_t>(j)]);
    const auto cnt = static_cast<std::size_t>(counts[static_cast<std::size_t>(j)]);
    std::copy_n(rowids.begin() + static_cast<std::ptrdiff_t>(src), cnt,
                out_rowids.begin() + static_cast<std::ptrdiff_t>(dst));
    std::copy_n(vals.begin() + static_cast<std::ptrdiff_t>(src), cnt,
                out_vals.begin() + static_cast<std::ptrdiff_t>(dst));
  }
  return CscMat(nrows, ncols, std::move(colptr), std::move(out_rowids),
                std::move(out_vals));
}

template CscMat merge_matrices<PlusTimes>(std::span<const CscConstRef>,
                                          MergeKind, int, bool);
template CscMat merge_matrices<MinPlus>(std::span<const CscConstRef>,
                                        MergeKind, int, bool);
template CscMat merge_matrices<MaxMin>(std::span<const CscConstRef>,
                                       MergeKind, int, bool);
template CscMat merge_matrices<OrAnd>(std::span<const CscConstRef>, MergeKind,
                                      int, bool);

}  // namespace casp
