// Row accumulators for the column-at-a-time kernels (Sec. IV-D).
//
// Symbolic, Local-Multiply, Merge-Layer/Fiber and the DCSC multiply each
// build one output column at a time: fold (row, value) contributions into
// an accumulator, emit its entries, reset, next column. Two storage sides
// share one interface; a kernel picks a side once per call with
// use_dense_rows() and is compiled against that side.
//
//  - HashRows: open-addressing table keyed by row, sized per column from a
//    bound (require), grown at 50% load, reset through its first-touch
//    list. Its footprint follows the column, not the block height, so it
//    is the side for tall and hyper-sparse blocks.
//  - DenseRows: a row bitmap and a dense value array over the block's
//    rows, plus a first-touch list. No probing; emit_sorted() walks the
//    bitmap, so rows come out ascending without a comparison sort.
//
// Both sides emit in first-touch order and fold contributions in arrival
// order, so a kernel's output is bitwise the same on either side. Sorted
// output orders unique rows, which every correct sort agrees on.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "kernels/semiring.hpp"

namespace casp {

/// The side rule: dense when the block is no taller than the call's work
/// (its flops, or its input nnz for a merge). The dense scratch -- 8 B of
/// value and one bit per row, per thread -- then never exceeds about 8 B
/// per unit of work, while a block taller than its work keeps a table the
/// size of its columns.
constexpr bool use_dense_rows(Index nrows, Index work) { return nrows <= work; }

/// Hash side. Reused across columns: reset() clears only the slots the
/// previous column touched.
template <typename SR = PlusTimes>
class HashRows {
 public:
  explicit HashRows(Index /*nrows*/ = 0) {}

  /// Size the table for `min_capacity` distinct rows at <= 50% load. An
  /// undersized bound (a short symbolic hint) is safe: the table grows.
  void require(Index min_capacity) {
    const std::uint64_t want = next_pow2(
        static_cast<std::uint64_t>(std::max<Index>(16, 2 * min_capacity)));
    if (want > keys_.size()) {
      keys_.assign(want, kEmpty);
      vals_.resize(want);
      mask_ = want - 1;
      used_.clear();
    }
  }

  void reset() {
    for (std::uint64_t slot : used_) keys_[slot] = kEmpty;
    used_.clear();
  }

  /// Record `row` without a value (symbolic counting); true if it is new.
  bool insert(Index row) {
    const std::uint64_t slot = find(row);
    if (keys_[slot] == row) return false;
    claim(slot, row);
    return true;
  }

  void accumulate(Index row, Value contribution) {
    const std::uint64_t slot = find(row);
    if (keys_[slot] == row) {
      vals_[slot] = SR::add(vals_[slot], contribution);
      return;
    }
    vals_[slot] = contribution;
    claim(slot, row);
  }

  Index size() const { return static_cast<Index>(used_.size()); }

  /// Entries in first-touch order.
  void emit(Index* rowids, Value* vals) const {
    for (std::size_t k = 0; k < used_.size(); ++k) {
      rowids[k] = keys_[used_[k]];
      vals[k] = vals_[used_[k]];
    }
  }

  /// Entries ascending by row: emit order, then a comparison sort.
  void emit_sorted(Index* rowids, Value* vals) {
    pairs_.resize(used_.size());
    for (std::size_t k = 0; k < used_.size(); ++k)
      pairs_[k] = {keys_[used_[k]], vals_[used_[k]]};
    std::sort(pairs_.begin(), pairs_.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t k = 0; k < pairs_.size(); ++k) {
      rowids[k] = pairs_[k].first;
      vals[k] = pairs_[k].second;
    }
  }

 private:
  static constexpr Index kEmpty = -1;

  /// The slot holding `row`, or the empty slot where it belongs.
  std::uint64_t find(Index row) const {
    std::uint64_t slot =
        (static_cast<std::uint64_t>(row) * 0x9e3779b97f4a7c15ULL) & mask_;
    while (keys_[slot] != kEmpty && keys_[slot] != row)
      slot = (slot + 1) & mask_;
    return slot;
  }

  void claim(std::uint64_t slot, Index row) {
    keys_[slot] = row;
    used_.push_back(slot);
    if (2 * used_.size() > keys_.size()) grow();
  }

  /// Double the table. used_ keeps its order, so emit order is unchanged.
  void grow() {
    std::vector<Index> old_keys = std::move(keys_);
    std::vector<Value> old_vals = std::move(vals_);
    std::vector<std::uint64_t> old_used = std::move(used_);
    keys_.assign(2 * old_keys.size(), kEmpty);
    vals_.resize(keys_.size());
    mask_ = keys_.size() - 1;
    used_.clear();
    used_.reserve(old_used.size());
    for (std::uint64_t old_slot : old_used) {
      const std::uint64_t slot = find(old_keys[old_slot]);
      keys_[slot] = old_keys[old_slot];
      vals_[slot] = old_vals[old_slot];
      used_.push_back(slot);
    }
  }

  std::vector<Index> keys_;
  std::vector<Value> vals_;
  std::vector<std::uint64_t> used_;
  std::vector<std::pair<Index, Value>> pairs_;  // emit_sorted scratch
  std::uint64_t mask_ = 0;
};

/// Dense side over rows [0, nrows).
template <typename SR = PlusTimes>
class DenseRows {
 public:
  explicit DenseRows(Index nrows)
      : bits_(static_cast<std::size_t>(ceil_div(nrows, 64))),
        vals_(static_cast<std::size_t>(nrows)) {}

  void require(Index /*min_capacity*/) {}

  void reset() {
    for (Index row : used_) bits_[static_cast<std::size_t>(row >> 6)] = 0;
    used_.clear();
  }

  bool insert(Index row) {
    std::uint64_t& word = bits_[static_cast<std::size_t>(row >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (row & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    used_.push_back(row);
    return true;
  }

  void accumulate(Index row, Value contribution) {
    Value& v = vals_[static_cast<std::size_t>(row)];
    v = insert(row) ? contribution : SR::add(v, contribution);
  }

  Index size() const { return static_cast<Index>(used_.size()); }

  void emit(Index* rowids, Value* vals) const {
    for (std::size_t k = 0; k < used_.size(); ++k) {
      rowids[k] = used_[k];
      vals[k] = vals_[static_cast<std::size_t>(used_[k])];
    }
  }

  /// Entries ascending by row, read off the bitmap. A column far shorter
  /// than the bitmap sorts its few first-touch rows instead of scanning
  /// every word; both orders are the same.
  void emit_sorted(Index* rowids, Value* vals) {
    if (bits_.size() > kScanWordsPerEntry * used_.size()) {
      std::sort(used_.begin(), used_.end());
      emit(rowids, vals);
      return;
    }
    std::size_t k = 0;
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      for (std::uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        const std::size_t row = 64 * w + static_cast<std::size_t>(std::countr_zero(word));
        rowids[k] = static_cast<Index>(row);
        vals[k] = vals_[row];
        ++k;
      }
    }
  }

 private:
  static constexpr std::size_t kScanWordsPerEntry = 8;

  std::vector<std::uint64_t> bits_;
  std::vector<Value> vals_;
  std::vector<Index> used_;
};

}  // namespace casp
