// The row accumulators' output contract, side by side: both sides emit
// the same rows and values bitwise, in first-touch order, with each row's
// contributions folded into SR::zero() in arrival order; emit_sorted is
// emit plus a sort; a column that is counted or dropped instead of emitted
// leaves nothing behind for the next one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kernels/accumulator.hpp"

namespace casp {
namespace {

/// One span of contributions: rows (repeats allowed), values and the
/// scale accumulate_all multiplies them by (add_all when scale is unset).
struct Run {
  std::vector<Index> rows;
  std::vector<Value> vals;
  bool scaled = false;
  Value scale = 1.0;
};

using Column = std::vector<Run>;

struct Entries {
  std::vector<Index> rows;
  std::vector<Value> vals;
};

template <typename SR>
Value draw_value(Rng& rng) {
  if constexpr (std::is_same_v<SR, OrAnd>) return rng.uniform() < 0.7 ? 1.0 : 0.0;
  return rng.uniform() * 4.0 - 2.0;
}

/// `runs` spans over rows [0, nrows), each of up to `len` rows drawn from
/// a window of `spread` rows, so rows repeat within and across spans.
template <typename SR>
Column random_column(Rng& rng, Index nrows, int runs, Index len, Index spread) {
  Column col;
  const Index base = rng.range(0, std::max<Index>(1, nrows - spread));
  for (int s = 0; s < runs; ++s) {
    Run run;
    const Index n = rng.range(1, len + 1);
    for (Index k = 0; k < n; ++k) {
      run.rows.push_back(std::min(nrows - 1, base + rng.range(0, spread)));
      run.vals.push_back(draw_value<SR>(rng));
    }
    run.scaled = s % 2 == 0;
    run.scale = draw_value<SR>(rng);
    col.push_back(std::move(run));
  }
  return col;
}

template <typename Rows>
void feed(Rows& acc, const Column& col) {
  for (const Run& run : col) {
    if (run.scaled)
      acc.accumulate_all(run.rows, run.vals, run.scale);
    else
      acc.add_all(run.rows, run.vals);
  }
}

template <typename Rows>
Entries emit(Rows& acc, bool sorted) {
  Entries out;
  out.rows.resize(static_cast<std::size_t>(acc.size()));
  out.vals.resize(out.rows.size());
  if (sorted)
    acc.emit_sorted(out.rows.data(), out.vals.data());
  else
    acc.emit(out.rows.data(), out.vals.data());
  return out;
}

/// The contract spelled out: first-touch order, each row folded into
/// SR::zero() in arrival order.
template <typename SR>
Entries expected(const Column& col) {
  Entries out;
  std::map<Index, std::size_t> at;
  for (const Run& run : col) {
    for (std::size_t k = 0; k < run.rows.size(); ++k) {
      const Value c = run.scaled ? SR::mul(run.vals[k], run.scale) : run.vals[k];
      auto [it, fresh] = at.try_emplace(run.rows[k], out.rows.size());
      if (fresh) {
        out.rows.push_back(run.rows[k]);
        out.vals.push_back(SR::zero());
      }
      out.vals[it->second] = SR::add(out.vals[it->second], c);
    }
  }
  return out;
}

Entries sorted_by_row(Entries e) {
  std::vector<std::pair<Index, Value>> pairs;
  for (std::size_t k = 0; k < e.rows.size(); ++k) pairs.emplace_back(e.rows[k], e.vals[k]);
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    e.rows[k] = pairs[k].first;
    e.vals[k] = pairs[k].second;
  }
  return e;
}

void expect_bitwise(const Entries& got, const Entries& want) {
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.vals.size(), want.vals.size());
  EXPECT_EQ(std::memcmp(got.vals.data(), want.vals.data(),
                        got.vals.size() * sizeof(Value)),
            0)
      << "values differ";
}

template <typename SR>
class AccumulatorContract : public ::testing::Test {};

using Semirings = ::testing::Types<PlusTimes, MinPlus, MaxMin, OrAnd>;
TYPED_TEST_SUITE(AccumulatorContract, Semirings);

TYPED_TEST(AccumulatorContract, BothSidesEmitTheContractInFirstTouchOrder) {
  using SR = TypeParam;
  // Tall enough that short columns take DenseRows' sorting path and long
  // ones its bitmap scan.
  const Index nrows = 4096;
  Rng rng(71);
  DenseRows<SR> dense(nrows);
  HashRows<SR> hash(nrows);
  for (int c = 0; c < 60; ++c) {
    const Column col = c % 3 == 0 ? random_column<SR>(rng, nrows, 2, 3, 8)
                                  : random_column<SR>(rng, nrows, 8, 200, 900);
    const Entries want = expected<SR>(col);
    hash.require(static_cast<Index>(want.rows.size()));
    feed(dense, col);
    feed(hash, col);
    ASSERT_EQ(dense.size(), static_cast<Index>(want.rows.size()));
    ASSERT_EQ(hash.size(), dense.size());
    SCOPED_TRACE("column " + std::to_string(c));
    expect_bitwise(emit(dense, false), want);
    expect_bitwise(emit(hash, false), want);
  }
}

TYPED_TEST(AccumulatorContract, EmitSortedIsEmitThenSort) {
  using SR = TypeParam;
  const Index nrows = 4096;
  Rng rng(72);
  DenseRows<SR> dense(nrows);
  HashRows<SR> hash(nrows);
  for (int c = 0; c < 60; ++c) {
    const Column col = c % 3 == 0 ? random_column<SR>(rng, nrows, 2, 3, 8)
                                  : random_column<SR>(rng, nrows, 8, 200, 900);
    const Entries want = sorted_by_row(expected<SR>(col));
    hash.require(static_cast<Index>(want.rows.size()));
    feed(dense, col);
    feed(hash, col);
    SCOPED_TRACE("column " + std::to_string(c));
    expect_bitwise(emit(dense, true), want);
    expect_bitwise(emit(hash, true), want);
  }
}

/// A counted column, then a dropped one, then an emitted one: the last
/// must come out as if it were the first.
template <typename Rows, typename SR>
void expect_no_stale_state(Rows& acc) {
  Rng rng(73);
  const Index nrows = 512;
  const Column counted = random_column<SR>(rng, nrows, 4, 40, 100);
  for (const Run& run : counted) acc.insert_all(run.rows);
  EXPECT_GT(acc.size(), 0);
  acc.reset();
  EXPECT_EQ(acc.size(), 0);

  // Accumulated over the same rows, never emitted (a column that outgrew
  // its slice).
  Column dropped = counted;
  for (Run& run : dropped)
    for (Value& v : run.vals) v = draw_value<SR>(rng);
  feed(acc, dropped);
  acc.reset();
  EXPECT_EQ(acc.size(), 0);

  Column next = counted;
  for (Run& run : next)
    for (Value& v : run.vals) v = draw_value<SR>(rng);
  feed(acc, next);
  expect_bitwise(emit(acc, false), expected<SR>(next));
  EXPECT_EQ(acc.size(), 0);
}

TYPED_TEST(AccumulatorContract, CountedAndDroppedColumnsLeaveNoStaleValues) {
  using SR = TypeParam;
  {
    SCOPED_TRACE("dense");
    DenseRows<SR> dense(512);
    expect_no_stale_state<DenseRows<SR>, SR>(dense);
  }
  {
    SCOPED_TRACE("hash");
    HashRows<SR> hash(512);
    hash.require(512);
    expect_no_stale_state<HashRows<SR>, SR>(hash);
  }
}

template <typename Rows>
void expect_negative_zeros_sum_to_positive_zero(Rows& acc) {
  const std::vector<Index> rows{5, 9, 5};
  const std::vector<Value> vals{-0.0, -0.0, -0.0};
  for (const bool sorted : {false, true}) {
    acc.add_all(rows, vals);
    acc.accumulate_all(rows, std::vector<Value>{1.0, 1.0, 1.0}, -0.0);
    const Entries out = emit(acc, sorted);
    ASSERT_EQ(out.rows.size(), 2U);
    for (const Value v : out.vals) {
      EXPECT_EQ(v, 0.0);
      EXPECT_FALSE(std::signbit(v)) << "a row of -0.0 contributions emitted -0.0";
    }
  }
}

TEST(AccumulatorSignedZero, AllNegativeZeroContributionsEmitPositiveZero) {
  {
    SCOPED_TRACE("dense");
    DenseRows<PlusTimes> dense(64);
    expect_negative_zeros_sum_to_positive_zero(dense);
  }
  {
    SCOPED_TRACE("hash");
    HashRows<PlusTimes> hash(64);
    hash.require(4);
    expect_negative_zeros_sum_to_positive_zero(hash);
  }
}

}  // namespace
}  // namespace casp
