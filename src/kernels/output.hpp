// Column-slice output for the column-at-a-time kernels: column j is
// written into a slice sized before it is formed, then finish(counts)
// assembles the result. CscSlices yields an owned CscMat; CscWireImages
// (sparse/serialize.hpp) has the same interface and yields wire pieces.
// Both take their arrays from the block pool (common/block_pool.hpp), so a
// slice's entries are unspecified until the kernel writes them.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "common/block_pool.hpp"
#include "sparse/csc_mat.hpp"

namespace casp {

class CscSlices {
 public:
  CscSlices(Index nrows, std::span<const Index> col_capacity)
      : nrows_(nrows), slice_(col_capacity.size() + 1, 0) {
    std::partial_sum(col_capacity.begin(), col_capacity.end(), slice_.begin() + 1);
    const auto n = static_cast<std::size_t>(slice_.back());
    rowids_ = BlockPool::global().take<Index>(n);
    vals_ = BlockPool::global().take<Value>(n);
  }
  CscSlices(const CscSlices&) = delete;
  CscSlices& operator=(const CscSlices&) = delete;
  ~CscSlices() {
    BlockPool::global().give(std::move(rowids_));
    BlockPool::global().give(std::move(vals_));
  }

  Index col_capacity(Index j) const {
    return slice_[static_cast<std::size_t>(j) + 1] - slice_[static_cast<std::size_t>(j)];
  }
  Index* col_rowids(Index j) { return rowids_.data() + slice_[static_cast<std::size_t>(j)]; }
  Value* col_vals(Index j) { return vals_.data() + slice_[static_cast<std::size_t>(j)]; }

  /// counts[j] <= col_capacity(j) entries were written to column j. Full
  /// slices are already contiguous CSC; short ones are copied out.
  CscMat finish(std::span<const Index> counts) && {
    std::vector<Index> colptr(counts.size() + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), colptr.begin() + 1);
    const auto ncols = static_cast<Index>(counts.size());
    if (colptr.back() == slice_.back())
      return CscMat(nrows_, ncols, std::move(slice_), std::move(rowids_), std::move(vals_));
    std::vector<Index> rowids =
        BlockPool::global().take<Index>(static_cast<std::size_t>(colptr.back()));
    std::vector<Value> vals = BlockPool::global().take<Value>(rowids.size());
    for (std::size_t j = 0; j < counts.size(); ++j) {
      std::copy_n(rowids_.begin() + slice_[j], counts[j], rowids.begin() + colptr[j]);
      std::copy_n(vals_.begin() + slice_[j], counts[j], vals.begin() + colptr[j]);
    }
    return CscMat(nrows_, ncols, std::move(colptr), std::move(rowids), std::move(vals));
  }

 private:
  Index nrows_;
  std::vector<Index> slice_;  // column j's slice: [slice_[j], slice_[j+1])
  std::vector<Index> rowids_;
  std::vector<Value> vals_;
};

}  // namespace casp
