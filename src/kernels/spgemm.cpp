#include "kernels/spgemm.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "kernels/accumulator.hpp"
#include "kernels/output.hpp"
#include "sparse/serialize.hpp"
#include "sparse/stats.hpp"

namespace casp {

const char* to_string(SpGemmKind kind) {
  switch (kind) {
    case SpGemmKind::kUnsortedHash: return "unsorted-hash";
    case SpGemmKind::kSortedHash: return "sorted-hash";
    case SpGemmKind::kHeap: return "heap";
    case SpGemmKind::kHybrid: return "hybrid";
    case SpGemmKind::kSpa: return "spa";
  }
  return "?";
}

bool produces_sorted(SpGemmKind kind) {
  return kind != SpGemmKind::kUnsortedHash;
}

namespace {

/// One output column through a row accumulator the caller has sized (or,
/// on the mask side, opened on the mask column), into a slice of
/// `out_capacity` entries. Returns the entry count; a count above
/// `out_capacity` writes nothing (the caller's slice was sized from an
/// undersized hint). Either way the accumulator is left empty.
template <typename SR, typename Rows, typename MatA, typename MatB>
Index accumulate_column(const MatA& a, const MatB& b, Index j, Rows& acc,
                        Index out_capacity, Index* rowids, Value* vals,
                        bool sort_output) {
  const auto brows = b.col_rowids(j);
  const auto bvals = b.col_vals(j);
  for (std::size_t t = 0; t < brows.size(); ++t)
    acc.accumulate_all(a.col_rowids(brows[t]), a.col_vals(brows[t]), bvals[t]);
  const Index cnt = acc.size();
  if (cnt > out_capacity) {
    acc.reset();
    return cnt;
  }
  if (sort_output)
    acc.emit_sorted(rowids, vals);
  else
    acc.emit(rowids, vals);
  return cnt;
}

/// One output column via multiway heap merge of sorted A columns.
/// Requires sorted input columns; emits sorted output.
template <typename SR, typename MatA, typename MatB>
Index heap_column(const MatA& a, const MatB& b, Index j, Index* rowids,
                  Value* vals) {
  struct Run {
    std::span<const Index> rows;
    std::span<const Value> vals;
    Value scale;
    std::size_t pos;
  };
  const auto brows = b.col_rowids(j);
  const auto bvals = b.col_vals(j);
  std::vector<Run> runs;
  runs.reserve(brows.size());
  for (std::size_t t = 0; t < brows.size(); ++t) {
    const Index i = brows[t];
    if (a.col_nnz(i) == 0) continue;
    runs.push_back({a.col_rowids(i), a.col_vals(i), bvals[t], 0});
  }
  using HeapItem = std::pair<Index, std::size_t>;  // (row, run index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t r = 0; r < runs.size(); ++r)
    heap.emplace(runs[r].rows[0], r);
  Index cnt = 0;
  while (!heap.empty()) {
    const auto [row, r] = heap.top();
    heap.pop();
    Run& run = runs[r];
    const Value contribution = SR::mul(run.vals[run.pos], run.scale);
    if (cnt > 0 && rowids[cnt - 1] == row) {
      vals[cnt - 1] = SR::add(vals[cnt - 1], contribution);
    } else {
      rowids[cnt] = row;
      vals[cnt] = contribution;
      ++cnt;
    }
    if (++run.pos < run.rows.size()) heap.emplace(run.rows[run.pos], r);
  }
  return cnt;
}

/// Fills `out`'s column slices (a CscSlices or a CscWireImages) with one
/// accumulator side per thread, and counts[j] with column j's entry count.
/// Returns false if a column outgrew its slice (an undersized hint). A
/// MaskedRows side opens each column on `mask`'s column and serves every
/// kind; the other sides never read `mask`.
template <typename SR, typename Rows, typename Out, typename MatA, typename MatB>
bool fill_columns(const MatA& a, const MatB& b, SpGemmKind kind, int threads,
                  std::span<const Index> col_nnz_hints,
                  [[maybe_unused]] const CscConstRef* mask, Out& out,
                  std::vector<Index>& counts) {
  const Index ncols = b.ncols();
  std::atomic<bool> overflow{false};

#if defined(CASP_HAVE_OPENMP)
#pragma omp parallel num_threads(std::max(1, threads))
#else
  (void)threads;
#endif
  {
    Rows acc(a.nrows());

#if defined(CASP_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 16)
#endif
    for (Index j = 0; j < ncols; ++j) {
      // Once a column has outgrown its slice the product is rerun anyway.
      if (overflow.load()) continue;
      const Index cap = out.col_capacity(j);
      if (cap == 0) continue;
      Index* rowids = out.col_rowids(j);
      Value* vals = out.col_vals(j);
      Index cnt = 0;
      if constexpr (is_masked_rows<Rows>) {
        acc.open(mask->col_rowids(j));
        cnt = accumulate_column<SR>(a, b, j, acc, cap, rowids, vals,
                                    /*sort_output=*/false);
      } else if (kind == SpGemmKind::kHeap ||
                 (kind == SpGemmKind::kHybrid && b.col_nnz(j) <= 8 &&
                  cap <= 256)) {
        // Nagasaka et al. [25]: heap wins when the column has few input
        // runs and little compression; hash wins otherwise. Proxy: the
        // hybrid kernel runs heap for short columns.
        cnt = heap_column<SR>(a, b, j, rowids, vals);
      } else {
        // The symbolic hint bounds the merged column's nnz across all
        // stages, so it also bounds this stage's contribution — size the
        // hash table from it when it beats the flops bound (clamped to
        // >= 1 so a column with flops but a zero hint still gets a table).
        acc.require(col_nnz_hints.empty()
                        ? cap
                        : std::min(cap, std::max<Index>(
                                            col_nnz_hints[static_cast<std::size_t>(j)], 1)));
        cnt = accumulate_column<SR>(a, b, j, acc, cap, rowids, vals,
                                    /*sort_output=*/produces_sorted(kind));
      }
      if (cnt > cap) {
        overflow.store(true);
        continue;
      }
      counts[static_cast<std::size_t>(j)] = cnt;
    }
  }
  return !overflow.load();
}

/// Runs the multiply, masked when `mask` is set, into the output target
/// `make_out(slice capacities)` builds and returns its finish().
template <typename SR, typename MakeOut>
auto run_spgemm(const CscConstRef& a, const CscConstRef& b, SpGemmKind kind,
                int threads, std::span<const Index> col_nnz_hints,
                const CscConstRef* mask, const MakeOut& make_out) {
  CASP_CHECK_MSG(a.ncols() == b.nrows(),
                 "local_spgemm: inner dimension mismatch " << a.ncols()
                                                           << " vs " << b.nrows());
  CASP_CHECK_MSG(col_nnz_hints.empty() ||
                     static_cast<Index>(col_nnz_hints.size()) == b.ncols(),
                 "local_spgemm: col_nnz_hints has " << col_nnz_hints.size()
                                                    << " entries for "
                                                    << b.ncols() << " columns");
  CASP_CHECK_MSG(mask == nullptr || (mask->nrows() == a.nrows() &&
                                     mask->ncols() == b.ncols()),
                 "local_spgemm: mask shape mismatch");
  // The hash kernels and the mask side size each output slice from the
  // symbolic hint (the per-column count Symbolic3D already computed); the
  // others keep the flops bound.
  const bool hint_sized = !col_nnz_hints.empty() &&
                          (mask != nullptr ||
                           kind == SpGemmKind::kUnsortedHash ||
                           kind == SpGemmKind::kSortedHash);
  // A slice holds min(flops_j, nrows) entries — min(flops_j, nnz(mask_j))
  // when masked — or, given symbolic counts, at most max(hint_j, 1).
  const std::vector<Index> flops = column_flops(a, b);
  std::vector<Index> caps(flops.size());
  for (std::size_t j = 0; j < flops.size(); ++j) {
    caps[j] = std::min(flops[j], mask != nullptr
                                     ? mask->col_nnz(static_cast<Index>(j))
                                     : a.nrows());
    if (hint_sized) caps[j] = std::min(caps[j], std::max<Index>(col_nnz_hints[j], 1));
  }
  auto out = make_out(caps);
  std::vector<Index> counts(flops.size(), 0);
  bool fits = false;
  if (mask != nullptr) {
    // Every kind runs the mask side.
    fits = fill_columns<SR, MaskedRows<SR>>(a, b, kind, threads, col_nnz_hints,
                                            mask, out, counts);
  } else {
    // kSpa is the dense side by definition; kHeap never accumulates.
    const Index work = std::accumulate(flops.begin(), flops.end(), Index{0});
    const bool dense = kind == SpGemmKind::kSpa ||
                       (kind != SpGemmKind::kHeap && use_dense_rows(a.nrows(), work));
    fits = dense ? fill_columns<SR, DenseRows<SR>>(a, b, kind, threads,
                                                   col_nnz_hints, nullptr, out, counts)
                 : fill_columns<SR, HashRows<SR>>(a, b, kind, threads,
                                                  col_nnz_hints, nullptr, out, counts);
  }
  // Hints are advisory: an undersized one left a column unwritten, so the
  // product reruns on the flops bound, which every column fits.
  if (fits) return std::move(out).finish(counts);
  return run_spgemm<SR>(a, b, kind, threads, {}, mask, make_out);
}

}  // namespace

template <typename SR>
CscMat local_spgemm(const CscConstRef& a, const CscConstRef& b,
                    SpGemmKind kind, int threads,
                    std::span<const Index> col_nnz_hints,
                    const CscConstRef* mask) {
  return run_spgemm<SR>(a, b, kind, threads, col_nnz_hints, mask,
                        [&](const std::vector<Index>& caps) {
                          return CscSlices(a.nrows(), caps);
                        });
}

template <typename SR>
std::vector<Payload> local_spgemm_wire(const CscConstRef& a,
                                       const CscConstRef& b,
                                       std::span<const Index> splits,
                                       SpGemmKind kind, int threads,
                                       std::span<const Index> col_nnz_hints,
                                       const CscConstRef* mask) {
  return run_spgemm<SR>(a, b, kind, threads, col_nnz_hints, mask,
                        [&](const std::vector<Index>& caps) {
                          return CscWireImages(a.nrows(), splits, caps);
                        });
}

template CscMat local_spgemm<PlusTimes>(const CscConstRef&, const CscConstRef&,
    SpGemmKind, int, std::span<const Index>, const CscConstRef*);
template CscMat local_spgemm<MinPlus>(const CscConstRef&, const CscConstRef&,
    SpGemmKind, int, std::span<const Index>, const CscConstRef*);
template CscMat local_spgemm<MaxMin>(const CscConstRef&, const CscConstRef&,
    SpGemmKind, int, std::span<const Index>, const CscConstRef*);
template CscMat local_spgemm<OrAnd>(const CscConstRef&, const CscConstRef&,
    SpGemmKind, int, std::span<const Index>, const CscConstRef*);

template std::vector<Payload> local_spgemm_wire<PlusTimes>(const CscConstRef&, const CscConstRef&,
    std::span<const Index>, SpGemmKind, int, std::span<const Index>, const CscConstRef*);
template std::vector<Payload> local_spgemm_wire<MinPlus>(const CscConstRef&, const CscConstRef&,
    std::span<const Index>, SpGemmKind, int, std::span<const Index>, const CscConstRef*);
template std::vector<Payload> local_spgemm_wire<MaxMin>(const CscConstRef&, const CscConstRef&,
    std::span<const Index>, SpGemmKind, int, std::span<const Index>, const CscConstRef*);
template std::vector<Payload> local_spgemm_wire<OrAnd>(const CscConstRef&, const CscConstRef&,
    std::span<const Index>, SpGemmKind, int, std::span<const Index>, const CscConstRef*);

}  // namespace casp
