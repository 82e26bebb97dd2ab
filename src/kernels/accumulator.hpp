// Row accumulators for the column-at-a-time kernels (Sec. IV-D).
//
// Symbolic, Local-Multiply and Merge-Layer/Fiber each build one output
// column at a time: fold (row, value) contributions into an accumulator,
// emit its entries, next column. Emitting empties the accumulator; a
// column that is counted or dropped instead is emptied with reset(). The
// kernels feed contributions a span at a time: insert_all (count only),
// accumulate_all (rows and values times a scale) and add_all; neither
// side has a per-element entry point. Two storage sides share one
// interface; a kernel picks a side once per call with use_dense_rows()
// and is compiled against that side.
//
//  - HashRows: open-addressing table keyed by row, sized per column from a
//    bound (require), grown at 50% load, emptied through its first-touch
//    list. Its footprint follows the column, not the block height, so it
//    is the side for tall and hyper-sparse blocks.
//  - DenseRows: a byte flag and a value slot per row of the block, plus a
//    first-touch list. No probing and no branch per contribution;
//    emit_sorted() reads rows ascending off a bitmap instead of a
//    comparison sort.
//
// Both sides emit in first-touch order and fold every contribution into
// SR::zero() with SR::add, in arrival order, so a kernel's output is
// bitwise the same on either side. Sorted output orders unique rows, which
// every correct sort agrees on.
//
// MaskedRows is the masked kernels' accumulator (C = (A*B) .* pattern(M),
// the masked SpGEMM of [3]): open() confines it to one mask column, every
// contribution to a row outside that column is dropped, and the kept rows
// fold exactly as above, so a masked column holds bitwise the values the
// unmasked column holds at the mask's rows. It emits in mask order.
//
// DenseRows and MaskedRows take a Slots parameter: kFlags keeps no values,
// for Symbolic, which only counts rows.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "kernels/semiring.hpp"

namespace casp {

/// The side rule: dense when the block is no taller than the call's work
/// (its flops, or its input nnz for a merge). The dense scratch -- about
/// 17 B per row, per thread: an 8 B value slot, an 8 B first-touch entry,
/// a flag byte and a bitmap bit -- then never exceeds about 17 B per unit
/// of work, while a block taller than its work keeps a table the size of
/// its columns.
constexpr bool use_dense_rows(Index nrows, Index work) { return nrows <= work; }

/// What a row accumulator stores per row: flags and values (the numeric
/// kernels), or flags only (Symbolic's counts; no value slot is allocated,
/// filled or restored).
enum class Slots { kValues, kFlags };

/// Hash side. Reused across columns: emptying clears only the slots the
/// column touched.
template <typename SR = PlusTimes>
class HashRows {
 public:
  explicit HashRows(Index /*nrows*/) {}

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

  /// Empties a column that is not emitted.
  void reset() {
    for (std::uint64_t slot : used_) keys_[slot] = kEmpty;
    used_.clear();
  }

  void insert_all(std::span<const Index> rows) {
    for (const Index row : rows) insert(row);
  }

  void accumulate_all(std::span<const Index> rows, std::span<const Value> vals,
                      Value scale) {
    for (std::size_t k = 0; k < rows.size(); ++k)
      accumulate(rows[k], SR::mul(vals[k], scale));
  }

  void add_all(std::span<const Index> rows, std::span<const Value> vals) {
    for (std::size_t k = 0; k < rows.size(); ++k) accumulate(rows[k], vals[k]);
  }

  Index size() const { return static_cast<Index>(used_.size()); }

  /// Entries in first-touch order; leaves the table empty.
  void emit(Index* rowids, Value* vals) {
    for (std::size_t k = 0; k < used_.size(); ++k) {
      rowids[k] = keys_[used_[k]];
      vals[k] = vals_[used_[k]];
    }
    reset();
  }

  /// Entries ascending by row: emit order, then a comparison sort.
  void emit_sorted(Index* rowids, Value* vals) {
    pairs_.resize(used_.size());
    for (std::size_t k = 0; k < used_.size(); ++k)
      pairs_[k] = {keys_[used_[k]], vals_[used_[k]]};
    reset();
    std::sort(pairs_.begin(), pairs_.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t k = 0; k < pairs_.size(); ++k) {
      rowids[k] = pairs_[k].first;
      vals[k] = pairs_[k].second;
    }
  }

 private:
  static constexpr Index kEmpty = -1;

  /// Record `row` without a value (symbolic counting).
  void insert(Index row) {
    const std::uint64_t slot = find(row);
    if (keys_[slot] != row) claim(slot, row);
  }

  /// Fold `contribution` into `row`; a new row folds it into SR::zero().
  void accumulate(Index row, Value contribution) {
    const std::uint64_t slot = find(row);
    if (keys_[slot] == row) {
      vals_[slot] = SR::add(vals_[slot], contribution);
      return;
    }
    vals_[slot] = SR::add(SR::zero(), contribution);
    claim(slot, row);
  }

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
///
/// At rest every row's flag byte is 0, every value slot (Slots::kValues)
/// holds SR::zero() and the emit_sorted bitmap is clear. A touch writes the row into the
/// first-touch list unconditionally and advances the cursor by the row's
/// "fresh" flag, and a contribution is folded into its slot with SR::add.
/// No step branches on whether the row is new, and consecutive rows touch
/// separate bytes, so no store waits on the previous one. Only the span
/// methods touch, each keeping the cursor and the array pointers in
/// locals: a uint8_t store may alias anything, so a per-element member
/// call would reload every member. Emitting restores each slot as it
/// reads it.
template <typename SR = PlusTimes, Slots S = Slots::kValues>
class DenseRows {
 public:
  explicit DenseRows(Index nrows)
      : seen_(static_cast<std::size_t>(64 * ceil_div(nrows, 64)), 0),
        vals_(S == Slots::kValues ? static_cast<std::size_t>(nrows) : 0,
              SR::zero()),
        // One spare slot: the unconditional write of a repeated row lands
        // one past the last distinct row.
        used_(std::make_unique_for_overwrite<Index[]>(
            static_cast<std::size_t>(nrows) + 1)),
        bits_(S == Slots::kValues ? static_cast<std::size_t>(ceil_div(nrows, 64))
                                  : 0) {}

  void require(Index /*min_capacity*/) {}

  /// Restores flag and value of every touched row of a column that is not
  /// emitted: one only counted (its values are still SR::zero()), or one
  /// accumulated and then dropped.
  void reset() {
    std::uint8_t* seen = seen_.data();
    for (std::size_t k = 0; k < n_; ++k) seen[used_[k]] = 0;
    if (folded_) {
      Value* v = vals_.data();
      for (std::size_t k = 0; k < n_; ++k) v[used_[k]] = SR::zero();
    }
    n_ = 0;
    folded_ = false;
  }

  void insert_all(std::span<const Index> rows) {
    touch_all(rows, [](std::size_t, std::size_t) {});
  }

  void accumulate_all(std::span<const Index> rows, std::span<const Value> vals,
                      Value scale)
    requires(S == Slots::kValues)
  {
    Value* v = vals_.data();
    const Value* in = vals.data();
    folded_ = true;
    touch_all(rows, [v, in, scale](std::size_t r, std::size_t k) {
      v[r] = SR::add(v[r], SR::mul(in[k], scale));
    });
  }

  void add_all(std::span<const Index> rows, std::span<const Value> vals)
    requires(S == Slots::kValues)
  {
    Value* v = vals_.data();
    const Value* in = vals.data();
    folded_ = true;
    touch_all(rows, [v, in](std::size_t r, std::size_t k) {
      v[r] = SR::add(v[r], in[k]);
    });
  }

  Index size() const { return static_cast<Index>(n_); }

  /// Entries in first-touch order.
  void emit(Index* rowids, Value* vals)
    requires(S == Slots::kValues)
  {
    std::uint8_t* seen = seen_.data();
    Value* v = vals_.data();
    const Index* used = used_.get();
    for (std::size_t k = 0; k < n_; ++k) {
      const auto r = static_cast<std::size_t>(used[k]);
      rowids[k] = used[k];
      vals[k] = v[r];
      v[r] = SR::zero();
      seen[r] = 0;
    }
    n_ = 0;
    folded_ = false;
  }

  /// Entries ascending by row, read off a bitmap filled from the
  /// first-touch list (the scan clears it again). A column far shorter
  /// than the bitmap sorts its few first-touch rows instead of scanning
  /// every word; both orders are the same.
  void emit_sorted(Index* rowids, Value* vals)
    requires(S == Slots::kValues)
  {
    Index* used = used_.get();
    if (bits_.size() > kScanWordsPerEntry * n_) {
      std::sort(used, used + n_);
      emit(rowids, vals);
      return;
    }
    std::uint64_t* bits = bits_.data();
    // Two interleaved halves: consecutive first-touch rows often share a
    // word, and each half's read-modify-write chain overlaps the other's.
    const std::size_t half = n_ / 2;
    for (std::size_t j = 0; j < half; ++j) {
      bits[used[j] >> 6] |= std::uint64_t{1} << (used[j] & 63);
      bits[used[half + j] >> 6] |= std::uint64_t{1} << (used[half + j] & 63);
    }
    if (n_ % 2 != 0)
      bits[used[n_ - 1] >> 6] |= std::uint64_t{1} << (used[n_ - 1] & 63);
    std::uint8_t* seen = seen_.data();
    Value* v = vals_.data();
    std::size_t k = 0;
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      std::uint64_t word = bits[w];
      if (word == 0) continue;
      bits[w] = 0;
      std::memset(seen + 64 * w, 0, 64);
      for (; word != 0; word &= word - 1) {
        const std::size_t row = 64 * w + static_cast<std::size_t>(std::countr_zero(word));
        rowids[k] = static_cast<Index>(row);
        vals[k] = v[row];
        v[row] = SR::zero();
        ++k;
      }
    }
    n_ = 0;
    folded_ = false;
  }

 private:
  static constexpr std::size_t kScanWordsPerEntry = 8;

  /// The one dense touch loop: record each row, then fold(row, k).
  template <typename Fold>
  void touch_all(std::span<const Index> rows, Fold fold) {
    std::uint8_t* seen = seen_.data();
    Index* used = used_.get();
    std::size_t n = n_;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const auto r = static_cast<std::size_t>(rows[k]);
      used[n] = rows[k];
      n += seen[r] ^ 1U;
      seen[r] = 1;
      fold(r, k);
    }
    n_ = n;
  }

  std::vector<std::uint8_t> seen_;  // flag per row, padded to whole bitmap words
  std::vector<Value> vals_;  // empty with Slots::kFlags
  std::unique_ptr<Index[]> used_;  // first-touch list, n_ live entries
  std::size_t n_ = 0;
  bool folded_ = false;  // this column's values may differ from SR::zero()
  std::vector<std::uint64_t> bits_;  // emit_sorted scratch, zero at rest
};

/// Mask side over rows [0, nrows), one mask column at a time.
///
/// open(rows) takes the column's mask rows; the accumulator then keeps a
/// flag and (Slots::kValues) a value per mask position, not per row, so
/// it never holds more entries than the mask column. A contribution finds
/// its position through a per-row table (8 B per row, -1 at rest), as the
/// dense side finds its flag. Emitting or reset() closes the column.
/// emit() writes the reached rows in mask order, so a sorted mask gives
/// sorted columns and emit_sorted() is emit().
template <typename SR = PlusTimes, Slots S = Slots::kValues>
class MaskedRows {
 public:
  explicit MaskedRows(Index nrows) : pos_(static_cast<std::size_t>(nrows), -1) {}

  /// Confines the next column to `rows`, which must outlive the column.
  void open(std::span<const Index> rows) {
    rows_ = rows;
    for (std::size_t k = 0; k < rows.size(); ++k)
      pos_[static_cast<std::size_t>(rows[k])] = static_cast<Index>(k);
    hit_.assign(rows.size(), 0);
    if constexpr (S == Slots::kValues) vals_.assign(rows.size(), SR::zero());
    n_ = 0;
  }

  void reset() { close(); }

  void insert_all(std::span<const Index> rows) {
    touch_all(rows, [](std::size_t, std::size_t) {});
  }

  void accumulate_all(std::span<const Index> rows, std::span<const Value> vals,
                      Value scale)
    requires(S == Slots::kValues)
  {
    Value* v = vals_.data();
    const Value* in = vals.data();
    touch_all(rows, [v, in, scale](std::size_t p, std::size_t k) {
      v[p] = SR::add(v[p], SR::mul(in[k], scale));
    });
  }

  Index size() const { return static_cast<Index>(n_); }

  /// Reached rows in mask order.
  void emit(Index* rowids, Value* vals)
    requires(S == Slots::kValues)
  {
    std::size_t n = 0;
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      if (hit_[k] == 0) continue;
      rowids[n] = rows_[k];
      vals[n] = vals_[k];
      ++n;
    }
    close();
  }

  void emit_sorted(Index* rowids, Value* vals)
    requires(S == Slots::kValues)
  {
    emit(rowids, vals);
  }

 private:
  void close() {
    for (const Index r : rows_) pos_[static_cast<std::size_t>(r)] = -1;
    rows_ = {};
    n_ = 0;
  }

  /// The one masked touch loop: skip rows off the mask, record the rest,
  /// then fold(position, k).
  template <typename Fold>
  void touch_all(std::span<const Index> rows, Fold fold) {
    const Index* pos = pos_.data();
    std::uint8_t* hit = hit_.data();
    std::size_t n = n_;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const Index p = pos[static_cast<std::size_t>(rows[k])];
      if (p < 0) continue;
      const auto pu = static_cast<std::size_t>(p);
      n += hit[pu] ^ 1U;
      hit[pu] = 1;
      fold(pu, k);
    }
    n_ = n;
  }

  std::vector<Index> pos_;  // mask position per row, -1 at rest
  std::span<const Index> rows_;  // the open mask column
  std::vector<std::uint8_t> hit_;  // per mask position
  std::vector<Value> vals_;  // per mask position; empty with Slots::kFlags
  std::size_t n_ = 0;
};

/// Whether a row accumulator is the mask side.
template <typename Rows>
inline constexpr bool is_masked_rows = false;
template <typename SR, Slots S>
inline constexpr bool is_masked_rows<MaskedRows<SR, S>> = true;

}  // namespace casp
