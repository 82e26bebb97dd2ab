#include "kernels/symbolic.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "kernels/accumulator.hpp"
#include "sparse/stats.hpp"

namespace casp {

namespace {
template <typename Rows>
std::vector<Index> count_columns(const CscConstRef& a, const CscConstRef& b,
                                 const std::vector<Index>& flops,
                                 [[maybe_unused]] const CscConstRef* mask) {
  std::vector<Index> nnz(static_cast<std::size_t>(b.ncols()), 0);
  Rows set(a.nrows());
  for (Index j = 0; j < b.ncols(); ++j) {
    const Index cap = std::min(flops[static_cast<std::size_t>(j)],
                               mask != nullptr ? mask->col_nnz(j) : a.nrows());
    if (cap == 0) continue;
    if constexpr (is_masked_rows<Rows>)
      set.open(mask->col_rowids(j));
    else
      set.require(cap);
    for (Index i : b.col_rowids(j)) set.insert_all(a.col_rowids(i));
    nnz[static_cast<std::size_t>(j)] = set.size();
    set.reset();
  }
  return nnz;
}
}  // namespace

std::vector<Index> symbolic_column_nnz(const CscConstRef& a,
                                       const CscConstRef& b,
                                       const CscConstRef* mask) {
  CASP_CHECK_MSG(a.ncols() == b.nrows(), "symbolic: inner dimension mismatch");
  CASP_CHECK_MSG(mask == nullptr || (mask->nrows() == a.nrows() &&
                                     mask->ncols() == b.ncols()),
                 "symbolic: mask shape mismatch");
  const std::vector<Index> flops = column_flops(a, b);
  if (mask != nullptr)
    return count_columns<MaskedRows<PlusTimes, Slots::kFlags>>(a, b, flops, mask);
  const Index work = std::accumulate(flops.begin(), flops.end(), Index{0});
  return use_dense_rows(a.nrows(), work)
             ? count_columns<DenseRows<PlusTimes, Slots::kFlags>>(a, b, flops, nullptr)
             : count_columns<HashRows<>>(a, b, flops, nullptr);
}

Index symbolic_nnz(const CscConstRef& a, const CscConstRef& b) {
  const std::vector<Index> per_col = symbolic_column_nnz(a, b);
  return std::accumulate(per_col.begin(), per_col.end(), Index{0});
}

}  // namespace casp
