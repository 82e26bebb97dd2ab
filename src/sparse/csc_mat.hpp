// Compressed Sparse Column matrix — the compute format.
//
// Gustavson's column algorithm (the basis of every local SpGEMM kernel in
// Sec. IV-D) forms C(:,j) from columns of A selected by B(:,j), so both
// operands and results live in CSC. Columns may be *unsorted* (row ids in
// arbitrary order within a column): the paper's key local-kernel
// optimization is to defer sorting until after Merge-Fiber, and this class
// deliberately supports both states, tracked by the caller.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/block_pool.hpp"
#include "common/types.hpp"
#include "sparse/triple_mat.hpp"

namespace casp {

class CscMat {
 public:
  CscMat() : nrows_(0), ncols_(0), colptr_{0} {}

  /// Empty matrix of the given shape.
  CscMat(Index nrows, Index ncols);

  /// Build from raw CSC arrays. colptr must have ncols+1 entries.
  CscMat(Index nrows, Index ncols, std::vector<Index> colptr,
         std::vector<Index> rowids, std::vector<Value> vals);

  // The row-id and value arrays go back to the block pool when the matrix
  // is destroyed or assigned over (common/block_pool.hpp).
  CscMat(const CscMat&) = default;
  CscMat(CscMat&&) noexcept = default;
  CscMat& operator=(const CscMat& other) {
    if (this != &other) *this = CscMat(other);
    return *this;
  }
  CscMat& operator=(CscMat&& other) noexcept {
    if (this != &other) {
      return_arrays();
      nrows_ = other.nrows_;
      ncols_ = other.ncols_;
      colptr_ = std::move(other.colptr_);
      rowids_ = std::move(other.rowids_);
      vals_ = std::move(other.vals_);
    }
    return *this;
  }
  ~CscMat() { return_arrays(); }

  /// Build from triples. The input is canonicalized first (sorted,
  /// duplicates summed), so the result has sorted, duplicate-free columns.
  static CscMat from_triples(TripleMat triples);

  /// Convert back to triples in canonical order iff columns are sorted.
  TripleMat to_triples() const;

  Index nrows() const { return nrows_; }
  Index ncols() const { return ncols_; }
  Index nnz() const { return colptr_.back(); }
  bool empty() const { return nnz() == 0; }

  std::span<const Index> colptr() const { return colptr_; }
  std::span<const Index> rowids() const { return rowids_; }
  std::span<const Value> vals() const { return vals_; }
  std::span<Value> vals_mutable() { return vals_; }

  /// Row ids / values of column j.
  std::span<const Index> col_rowids(Index j) const {
    return std::span<const Index>(rowids_).subspan(
        static_cast<std::size_t>(colptr_[static_cast<std::size_t>(j)]),
        static_cast<std::size_t>(col_nnz(j)));
  }
  std::span<const Value> col_vals(Index j) const {
    return std::span<const Value>(vals_).subspan(
        static_cast<std::size_t>(colptr_[static_cast<std::size_t>(j)]),
        static_cast<std::size_t>(col_nnz(j)));
  }
  Index col_nnz(Index j) const {
    return colptr_[static_cast<std::size_t>(j) + 1] -
           colptr_[static_cast<std::size_t>(j)];
  }

  /// A^T, with sorted columns (counting-sort based, O(nnz + nrows)).
  CscMat transpose() const;

  /// Columns [c0, c1) as a new matrix with ncols = c1 - c0.
  CscMat slice_cols(Index c0, Index c1) const;

  /// Extract and concatenate several disjoint, ascending column ranges —
  /// used to pull one block-cyclic batch out of a local B.
  CscMat select_col_ranges(
      std::span<const std::pair<Index, Index>> ranges) const;

  /// Rows [r0, r1) as a new matrix with nrows = r1 - r0 (row indices
  /// reindexed). Used by row-wise batching to slice a batch out of A.
  CscMat slice_rows(Index r0, Index r1) const;

  /// Horizontal concatenation: [mats[0] | mats[1] | ...]. All inputs must
  /// share nrows.
  static CscMat concat_cols(std::span<const CscMat> mats);

  /// Sort row ids (and values) within every column ascending. This is the
  /// single final sort the paper performs after Merge-Fiber.
  void sort_columns();
  bool columns_sorted() const;

  /// Sum duplicate row entries within each column (requires or establishes
  /// sortedness). Needed only when assembling from non-merged pieces.
  void merge_duplicates();

  /// Keep only entries satisfying pred(row, col, val). Preserves order.
  template <typename Pred>
  void prune(Pred&& pred) {
    std::vector<Index> new_colptr(colptr_.size(), 0);
    std::size_t out = 0;
    for (Index j = 0; j < ncols_; ++j) {
      for (Index k = colptr_[static_cast<std::size_t>(j)];
           k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        if (pred(rowids_[ku], j, vals_[ku])) {
          rowids_[out] = rowids_[ku];
          vals_[out] = vals_[ku];
          ++out;
        }
      }
      new_colptr[static_cast<std::size_t>(j) + 1] = static_cast<Index>(out);
    }
    colptr_ = std::move(new_colptr);
    rowids_.resize(out);
    vals_.resize(out);
  }

  /// Memory footprint in bytes (array storage only).
  Bytes storage_bytes() const {
    return static_cast<Bytes>(colptr_.size()) * sizeof(Index) +
           static_cast<Bytes>(rowids_.size()) * (sizeof(Index) + sizeof(Value));
  }

  /// Structural + numerical equality of the raw arrays (callers wanting
  /// mathematical equality should sort_columns() both sides first).
  friend bool operator==(const CscMat& a, const CscMat& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.colptr_ == b.colptr_ && a.rowids_ == b.rowids_ &&
           a.vals_ == b.vals_;
  }

  /// Internal-consistency check (monotone colptr, bounds); for tests.
  void check_valid() const;

 private:
  void return_arrays() {
    BlockPool::global().give(std::move(rowids_));
    BlockPool::global().give(std::move(vals_));
  }

  Index nrows_;
  Index ncols_;
  std::vector<Index> colptr_;
  std::vector<Index> rowids_;
  std::vector<Value> vals_;
};

/// Strictly-lower-triangular part of a square matrix (CSC in, CSC out).
CscMat lower_triangle(const CscMat& a);
/// Strictly-upper-triangular part of a square matrix.
CscMat upper_triangle(const CscMat& a);

}  // namespace casp
