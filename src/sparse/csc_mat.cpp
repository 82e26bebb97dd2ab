#include "sparse/csc_mat.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace casp {

CscMat::CscMat(Index nrows, Index ncols)
    : nrows_(nrows),
      ncols_(ncols),
      colptr_(static_cast<std::size_t>(ncols) + 1, 0) {
  CASP_CHECK(nrows >= 0 && ncols >= 0);
}

CscMat::CscMat(Index nrows, Index ncols, std::vector<Index> colptr,
               std::vector<Index> rowids, std::vector<Value> vals)
    : nrows_(nrows),
      ncols_(ncols),
      colptr_(std::move(colptr)),
      rowids_(std::move(rowids)),
      vals_(std::move(vals)) {
  check_valid();
}

CscMat CscMat::from_triples(TripleMat triples) {
  triples.canonicalize();
  CscMat m(triples.nrows(), triples.ncols());
  m.rowids_.reserve(triples.entries().size());
  m.vals_.reserve(triples.entries().size());
  for (const Triple& t : triples.entries()) {
    ++m.colptr_[static_cast<std::size_t>(t.col) + 1];
    m.rowids_.push_back(t.row);
    m.vals_.push_back(t.val);
  }
  std::partial_sum(m.colptr_.begin(), m.colptr_.end(), m.colptr_.begin());
  return m;
}

TripleMat CscMat::to_triples() const {
  TripleMat t(nrows_, ncols_);
  t.reserve(nnz());
  for (Index j = 0; j < ncols_; ++j) {
    for (Index k = colptr_[static_cast<std::size_t>(j)];
         k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      t.push_back(rowids_[ku], j, vals_[ku]);
    }
  }
  return t;
}

CscMat CscMat::transpose() const {
  CscMat t(ncols_, nrows_);
  t.rowids_.resize(rowids_.size());
  t.vals_.resize(vals_.size());
  // Count entries per row of *this (= per column of the transpose).
  std::vector<Index>& tptr = t.colptr_;
  for (Index r : rowids_) ++tptr[static_cast<std::size_t>(r) + 1];
  std::partial_sum(tptr.begin(), tptr.end(), tptr.begin());
  std::vector<Index> cursor(tptr.begin(), tptr.end() - 1);
  for (Index j = 0; j < ncols_; ++j) {
    for (Index k = colptr_[static_cast<std::size_t>(j)];
         k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const Index r = rowids_[ku];
      const auto pos = static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++);
      t.rowids_[pos] = j;
      t.vals_[pos] = vals_[ku];
    }
  }
  // Scanning columns of *this ascending means row ids land sorted only if we
  // scan all columns for each row in order — which the cursor walk above
  // already guarantees (column index j increases monotonically per row).
  return t;
}

CscMat CscMat::slice_cols(Index c0, Index c1) const {
  CASP_CHECK(0 <= c0 && c0 <= c1 && c1 <= ncols_);
  CscMat s(nrows_, c1 - c0);
  const Index base = colptr_[static_cast<std::size_t>(c0)];
  const Index end = colptr_[static_cast<std::size_t>(c1)];
  s.rowids_.assign(rowids_.begin() + base, rowids_.begin() + end);
  s.vals_.assign(vals_.begin() + base, vals_.begin() + end);
  for (Index j = c0; j <= c1; ++j)
    s.colptr_[static_cast<std::size_t>(j - c0)] =
        colptr_[static_cast<std::size_t>(j)] - base;
  return s;
}

CscMat CscMat::select_col_ranges(
    std::span<const std::pair<Index, Index>> ranges) const {
  Index total_cols = 0;
  Index total_nnz = 0;
  Index prev_end = 0;
  for (const auto& [c0, c1] : ranges) {
    CASP_CHECK_MSG(prev_end <= c0 && c0 <= c1 && c1 <= ncols_,
                   "ranges must be disjoint and ascending");
    prev_end = c1;
    total_cols += c1 - c0;
    total_nnz += colptr_[static_cast<std::size_t>(c1)] -
                 colptr_[static_cast<std::size_t>(c0)];
  }
  CscMat s(nrows_, total_cols);
  s.rowids_.reserve(static_cast<std::size_t>(total_nnz));
  s.vals_.reserve(static_cast<std::size_t>(total_nnz));
  Index out_col = 0;
  for (const auto& [c0, c1] : ranges) {
    const Index base = colptr_[static_cast<std::size_t>(c0)];
    const Index end = colptr_[static_cast<std::size_t>(c1)];
    s.rowids_.insert(s.rowids_.end(), rowids_.begin() + base,
                     rowids_.begin() + end);
    s.vals_.insert(s.vals_.end(), vals_.begin() + base, vals_.begin() + end);
    for (Index j = c0; j < c1; ++j) {
      s.colptr_[static_cast<std::size_t>(out_col) + 1] =
          s.colptr_[static_cast<std::size_t>(out_col)] + col_nnz(j);
      ++out_col;
    }
  }
  return s;
}

CscMat CscMat::slice_rows(Index r0, Index r1) const {
  CASP_CHECK(0 <= r0 && r0 <= r1 && r1 <= nrows_);
  CscMat s(r1 - r0, ncols_);
  s.rowids_.reserve(rowids_.size());
  s.vals_.reserve(vals_.size());
  for (Index j = 0; j < ncols_; ++j) {
    for (Index k = colptr_[static_cast<std::size_t>(j)];
         k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      if (rowids_[ku] >= r0 && rowids_[ku] < r1) {
        s.rowids_.push_back(rowids_[ku] - r0);
        s.vals_.push_back(vals_[ku]);
      }
    }
    s.colptr_[static_cast<std::size_t>(j) + 1] =
        static_cast<Index>(s.rowids_.size());
  }
  return s;
}

CscMat CscMat::concat_cols(std::span<const CscMat> mats) {
  CASP_CHECK(!mats.empty());
  const Index nrows = mats.front().nrows();
  Index ncols = 0;
  Index nnz = 0;
  for (const CscMat& m : mats) {
    CASP_CHECK_MSG(m.nrows() == nrows, "concat_cols: nrows mismatch");
    ncols += m.ncols();
    nnz += m.nnz();
  }
  CscMat out(nrows, ncols);
  out.rowids_.reserve(static_cast<std::size_t>(nnz));
  out.vals_.reserve(static_cast<std::size_t>(nnz));
  Index col = 0;
  for (const CscMat& m : mats) {
    out.rowids_.insert(out.rowids_.end(), m.rowids_.begin(), m.rowids_.end());
    out.vals_.insert(out.vals_.end(), m.vals_.begin(), m.vals_.end());
    const Index base = out.colptr_[static_cast<std::size_t>(col)];
    for (Index j = 0; j < m.ncols(); ++j) {
      out.colptr_[static_cast<std::size_t>(col) + 1] =
          base + m.colptr_[static_cast<std::size_t>(j) + 1];
      ++col;
    }
  }
  return out;
}

void CscMat::sort_columns() {
  std::vector<std::pair<Index, Value>> buffer;
  for (Index j = 0; j < ncols_; ++j) {
    const auto lo = static_cast<std::size_t>(colptr_[static_cast<std::size_t>(j)]);
    const auto hi = static_cast<std::size_t>(colptr_[static_cast<std::size_t>(j) + 1]);
    if (hi - lo <= 1) continue;
    bool sorted = true;
    for (std::size_t k = lo + 1; k < hi; ++k) {
      if (rowids_[k - 1] > rowids_[k]) {
        sorted = false;
        break;
      }
    }
    if (sorted) continue;
    buffer.clear();
    buffer.reserve(hi - lo);
    for (std::size_t k = lo; k < hi; ++k) buffer.emplace_back(rowids_[k], vals_[k]);
    std::sort(buffer.begin(), buffer.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t k = lo; k < hi; ++k) {
      rowids_[k] = buffer[k - lo].first;
      vals_[k] = buffer[k - lo].second;
    }
  }
}

bool CscMat::columns_sorted() const {
  for (Index j = 0; j < ncols_; ++j) {
    for (Index k = colptr_[static_cast<std::size_t>(j)] + 1;
         k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      if (rowids_[static_cast<std::size_t>(k - 1)] >=
          rowids_[static_cast<std::size_t>(k)])
        return false;
    }
  }
  return true;
}

void CscMat::merge_duplicates() {
  sort_columns();
  std::vector<Index> new_colptr(colptr_.size(), 0);
  std::size_t out = 0;
  for (Index j = 0; j < ncols_; ++j) {
    std::size_t k = static_cast<std::size_t>(colptr_[static_cast<std::size_t>(j)]);
    const std::size_t hi =
        static_cast<std::size_t>(colptr_[static_cast<std::size_t>(j) + 1]);
    while (k < hi) {
      Index row = rowids_[k];
      Value sum = vals_[k];
      std::size_t k2 = k + 1;
      while (k2 < hi && rowids_[k2] == row) sum += vals_[k2++];
      rowids_[out] = row;
      vals_[out] = sum;
      ++out;
      k = k2;
    }
    new_colptr[static_cast<std::size_t>(j) + 1] = static_cast<Index>(out);
  }
  colptr_ = std::move(new_colptr);
  rowids_.resize(out);
  vals_.resize(out);
}

void CscMat::check_valid() const {
  CASP_CHECK(nrows_ >= 0 && ncols_ >= 0);
  CASP_CHECK(colptr_.size() == static_cast<std::size_t>(ncols_) + 1);
  CASP_CHECK(colptr_.front() == 0);
  for (std::size_t j = 0; j < static_cast<std::size_t>(ncols_); ++j)
    CASP_CHECK_MSG(colptr_[j] <= colptr_[j + 1], "colptr not monotone at " << j);
  CASP_CHECK(colptr_.back() == static_cast<Index>(rowids_.size()));
  CASP_CHECK(rowids_.size() == vals_.size());
  for (Index r : rowids_)
    CASP_CHECK_MSG(r >= 0 && r < nrows_, "row id " << r << " out of bounds");
}

CscMat lower_triangle(const CscMat& a) {
  CscMat out = a;
  out.prune([](Index row, Index col, Value) { return row > col; });
  return out;
}

CscMat upper_triangle(const CscMat& a) {
  CscMat out = a;
  out.prune([](Index row, Index col, Value) { return row < col; });
  return out;
}

}  // namespace casp
