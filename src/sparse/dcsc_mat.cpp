#include "sparse/dcsc_mat.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "kernels/accumulator.hpp"

namespace casp {

DcscMat DcscMat::from_csc(const CscMat& csc) {
  DcscMat d;
  d.nrows_ = csc.nrows();
  d.ncols_ = csc.ncols();
  d.cp_.clear();
  d.cp_.push_back(0);
  for (Index j = 0; j < csc.ncols(); ++j) {
    const Index cnt = csc.col_nnz(j);
    if (cnt == 0) continue;
    d.jc_.push_back(j);
    d.cp_.push_back(d.cp_.back() + cnt);
  }
  d.ir_.assign(csc.rowids().begin(), csc.rowids().end());
  d.num_.assign(csc.vals().begin(), csc.vals().end());
  return d;
}

CscMat DcscMat::to_csc() const {
  std::vector<Index> colptr(static_cast<std::size_t>(ncols_) + 1, 0);
  for (std::size_t k = 0; k < jc_.size(); ++k)
    colptr[static_cast<std::size_t>(jc_[k]) + 1] = cp_[k + 1] - cp_[k];
  for (std::size_t j = 0; j < static_cast<std::size_t>(ncols_); ++j)
    colptr[j + 1] += colptr[j];
  return CscMat(nrows_, ncols_, std::move(colptr),
                std::vector<Index>(ir_.begin(), ir_.end()),
                std::vector<Value>(num_.begin(), num_.end()));
}

Index DcscMat::find_col(Index j) const {
  const auto it = std::lower_bound(jc_.begin(), jc_.end(), j);
  if (it == jc_.end() || *it != j) return -1;
  return static_cast<Index>(it - jc_.begin());
}

void DcscMat::check_valid() const {
  CASP_CHECK(cp_.size() == jc_.size() + 1);
  CASP_CHECK(cp_.front() == 0);
  CASP_CHECK(std::is_sorted(jc_.begin(), jc_.end()));
  for (std::size_t k = 0; k + 1 < cp_.size(); ++k)
    CASP_CHECK_MSG(cp_[k] < cp_[k + 1], "DCSC column " << k << " is empty");
  for (Index j : jc_) CASP_CHECK(j >= 0 && j < ncols_);
  for (Index r : ir_) CASP_CHECK(r >= 0 && r < nrows_);
  CASP_CHECK(cp_.back() == static_cast<Index>(ir_.size()));
  CASP_CHECK(ir_.size() == num_.size());
}

namespace {
/// Appends the accumulator's column to (rows, vals) in first-touch order,
/// leaving the accumulator empty.
template <typename SR>
void append_column(HashRows<SR>& acc, std::vector<Index>& rows,
                   std::vector<Value>& vals) {
  const std::size_t at = rows.size();
  rows.resize(at + static_cast<std::size_t>(acc.size()));
  vals.resize(rows.size());
  acc.emit(rows.data() + at, vals.data() + at);
}
}  // namespace

template <typename SR>
CscMat hypersparse_spgemm(const DcscMat& a, const CscMat& b) {
  CASP_CHECK_MSG(a.ncols() == b.nrows(),
                 "hypersparse_spgemm: inner dimension mismatch");
  std::vector<Index> colptr(static_cast<std::size_t>(b.ncols()) + 1, 0);
  std::vector<Index> rowids;
  std::vector<Value> vals;
  HashRows<SR> acc;
  for (Index j = 0; j < b.ncols(); ++j) {
    const auto brows = b.col_rowids(j);
    const auto bvals = b.col_vals(j);
    // Upper bound on this column's output size for the table.
    Index cap = 0;
    // Two passes over the (typically tiny) B column: bound, then multiply.
    std::vector<Index> hit(brows.size(), -1);
    for (std::size_t t = 0; t < brows.size(); ++t) {
      const Index k = a.find_col(brows[t]);
      hit[t] = k;
      if (k >= 0) cap += static_cast<Index>(a.nonempty_rowids(k).size());
    }
    if (cap > 0) {
      acc.require(std::min(cap, a.nrows()));
      for (std::size_t t = 0; t < brows.size(); ++t) {
        if (hit[t] < 0) continue;
        const auto arows = a.nonempty_rowids(hit[t]);
        const auto avals = a.nonempty_vals(hit[t]);
        for (std::size_t s = 0; s < arows.size(); ++s)
          acc.accumulate(arows[s], SR::mul(avals[s], bvals[t]));
      }
      append_column(acc, rowids, vals);
    }
    colptr[static_cast<std::size_t>(j) + 1] = static_cast<Index>(rowids.size());
  }
  return CscMat(a.nrows(), b.ncols(), std::move(colptr), std::move(rowids),
                std::move(vals));
}

template <typename SR>
DcscMat hypersparse_spgemm_dcsc(const DcscMat& a, const DcscMat& b) {
  CASP_CHECK_MSG(a.ncols() == b.nrows(),
                 "hypersparse_spgemm_dcsc: inner dimension mismatch");
  std::vector<Index> jc;
  std::vector<Index> cp{0};
  std::vector<Index> ir;
  std::vector<Value> num;
  HashRows<SR> acc;
  // Only B's nonempty columns can produce output columns.
  for (Index t = 0; t < b.nonempty_cols(); ++t) {
    const auto brows = b.nonempty_rowids(t);
    const auto bvals = b.nonempty_vals(t);
    Index cap = 0;
    std::vector<Index> hit(brows.size(), -1);
    for (std::size_t s = 0; s < brows.size(); ++s) {
      const Index k = a.find_col(brows[s]);
      hit[s] = k;
      if (k >= 0) cap += static_cast<Index>(a.nonempty_rowids(k).size());
    }
    if (cap == 0) continue;
    acc.require(std::min(cap, a.nrows()));
    for (std::size_t s = 0; s < brows.size(); ++s) {
      if (hit[s] < 0) continue;
      const auto arows = a.nonempty_rowids(hit[s]);
      const auto avals = a.nonempty_vals(hit[s]);
      for (std::size_t e = 0; e < arows.size(); ++e)
        acc.accumulate(arows[e], SR::mul(avals[e], bvals[s]));
    }
    if (acc.size() == 0) continue;
    jc.push_back(b.col_ids()[static_cast<std::size_t>(t)]);
    append_column(acc, ir, num);
    cp.push_back(static_cast<Index>(ir.size()));
  }
  return DcscMat(a.nrows(), b.ncols(), std::move(jc), std::move(cp),
                 std::move(ir), std::move(num));
}

template DcscMat hypersparse_spgemm_dcsc<PlusTimes>(const DcscMat&,
                                                    const DcscMat&);
template DcscMat hypersparse_spgemm_dcsc<MinPlus>(const DcscMat&,
                                                  const DcscMat&);
template DcscMat hypersparse_spgemm_dcsc<MaxMin>(const DcscMat&,
                                                 const DcscMat&);
template DcscMat hypersparse_spgemm_dcsc<OrAnd>(const DcscMat&,
                                                const DcscMat&);

template CscMat hypersparse_spgemm<PlusTimes>(const DcscMat&, const CscMat&);
template CscMat hypersparse_spgemm<MinPlus>(const DcscMat&, const CscMat&);
template CscMat hypersparse_spgemm<MaxMin>(const DcscMat&, const CscMat&);
template CscMat hypersparse_spgemm<OrAnd>(const DcscMat&, const CscMat&);

}  // namespace casp
