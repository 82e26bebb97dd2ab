// BlockPool (DESIGN.md §5p): the floor, the fit rule, the retention bound,
// thread safety, the Payload steal path and the AddressSanitizer guard.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "common/block_pool.hpp"
#include "common/payload.hpp"

namespace casp {
namespace {

/// Elements of T in `floors` pool floors.
template <typename T>
std::size_t elems(double floors) {
  return static_cast<std::size_t>(floors * BlockPool::kFloor) / sizeof(T);
}

void expect_bound(const BlockPool& pool) {
  const BlockPool::Stats s = pool.stats();
  EXPECT_LE(s.retained_bytes, s.high_water_bytes);
}

TEST(BlockPool, LifoReuseReturnsTheSameStorage) {
  BlockPool pool;
  const std::size_t n = elems<Index>(1);
  std::vector<Index> a = pool.take<Index>(n);
  std::vector<Index> b = pool.take<Index>(n + n / 4);
  const Index* a_data = a.data();
  const Index* b_data = b.data();
  pool.give(std::move(a));
  pool.give(std::move(b));
  EXPECT_TRUE(a.empty() && b.empty());
  EXPECT_EQ(pool.stats().retained_blocks, 2u);

  // Both fit n + 1; the most recently returned one is handed out.
  std::vector<Index> c = pool.take<Index>(n + 1);
  EXPECT_EQ(c.data(), b_data);
  EXPECT_EQ(c.size(), n + 1);
  // An exact fit wins over recency.
  pool.give(std::move(c));
  std::vector<Index> d = pool.take<Index>(n);
  EXPECT_EQ(d.data(), a_data);
  const BlockPool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.in_use_bytes, n * sizeof(Index));
  expect_bound(pool);
}

TEST(BlockPool, BlockOverTwiceTheRequestIsNotHandedOut) {
  BlockPool pool;
  std::vector<Value> big = pool.take<Value>(elems<Value>(2.5));
  const Value* big_data = big.data();
  pool.give(std::move(big));
  // 2.5 floors is more than twice 1.2 floors: allocate instead.
  std::vector<Value> small = pool.take<Value>(elems<Value>(1.2));
  EXPECT_NE(small.data(), big_data);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 2u);
  // Other element types never share blocks either.
  std::vector<Index> other = pool.take<Index>(elems<Index>(2.5));
  EXPECT_EQ(pool.stats().hits, 0u);
  pool.give(std::move(other));
  pool.give(std::move(small));
  expect_bound(pool);
}

TEST(BlockPool, RequestsBelowTheFloorBypassThePool) {
  BlockPool pool;
  std::vector<std::byte> bytes = pool.take<std::byte>(BlockPool::kFloor - 1);
  std::vector<Index> ids = pool.take<Index>(elems<Index>(1) - 1);
  EXPECT_EQ(bytes.size(), BlockPool::kFloor - 1);
  pool.give(std::move(bytes));
  pool.give(std::move(ids));
  const BlockPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
  EXPECT_EQ(s.retained_blocks, 0u);
  EXPECT_EQ(s.high_water_bytes, 0u);
}

TEST(BlockPool, KeepsOnlyBlocksItHandedOut) {
  BlockPool pool;
  std::vector<Index> mine = pool.take<Index>(elems<Index>(1));
  pool.give(std::vector<Index>(elems<Index>(1)));
  EXPECT_EQ(pool.stats().retained_blocks, 0u);
  pool.give(std::move(mine));
  EXPECT_EQ(pool.stats().retained_blocks, 1u);
  EXPECT_EQ(pool.stats().in_use_bytes, 0u);
}

TEST(BlockPool, RetentionBoundEvictsTheOldestBlocks) {
  BlockPool pool;
  const std::size_t n = elems<Index>(2);
  std::vector<Index> a = pool.take<Index>(n);
  std::vector<Index> b = pool.take<Index>(n);
  pool.give(std::move(a));
  pool.give(std::move(b));
  EXPECT_EQ(pool.stats().high_water_bytes, 2 * n * sizeof(Index));
  EXPECT_EQ(pool.stats().retained_blocks, 2u);

  // Five floors fit neither block (2 < 5), so they allocate: the mark rises
  // to 5 floors. Their return would retain 9: the oldest block, a, goes,
  // and 7 still pass the mark, so b goes too.
  std::vector<Index> big = pool.take<Index>(elems<Index>(5));
  const Index* big_data = big.data();
  EXPECT_EQ(pool.stats().high_water_bytes, 5 * BlockPool::kFloor);
  pool.give(std::move(big));
  BlockPool::Stats s = pool.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.retained_blocks, 1u);
  EXPECT_EQ(s.retained_bytes, 5 * BlockPool::kFloor);
  std::vector<Index> again = pool.take<Index>(elems<Index>(5));
  EXPECT_EQ(again.data(), big_data);
  // A block that was retained before fits the mark again on its return.
  pool.give(std::move(again));
  s = pool.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.retained_blocks, 1u);
  EXPECT_EQ(s.in_use_bytes, 0u);
}

TEST(BlockPool, ConcurrentTakeAndGiveFromFourThreads) {
  BlockPool pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kRounds; ++i) {
        const double floors = 1.0 + 0.25 * ((t + i) % 4);
        std::vector<Value> v = pool.take<Value>(elems<Value>(floors));
        v.front() = static_cast<Value>(t);
        v.back() = static_cast<Value>(i);
        std::vector<std::byte> w = pool.take<std::byte>(BlockPool::kFloor);
        w[0] = std::byte{1};
        pool.give(std::move(v));
        pool.give(std::move(w));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const BlockPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 2u * kThreads * kRounds);
  EXPECT_EQ(s.in_use_bytes, 0u);
  EXPECT_GT(s.hits, 0u);
  expect_bound(pool);
}

TEST(BlockPool, ReleaseOrCopyStealingAPooledBufferLeavesNothingInThePool) {
  BlockPool& pool = BlockPool::global();
  pool.release_retained();
  const BlockPool::Stats before = pool.stats();
  std::vector<std::byte> bytes = pool.take<std::byte>(BlockPool::kFloor);
  const std::byte* raw = bytes.data();
  Payload p = Payload::wrap(std::move(bytes));
  std::vector<std::byte> stolen = std::move(p).release_or_copy();
  EXPECT_EQ(stolen.data(), raw);
  // The stolen block left the pool for good: not in use, not retained, and
  // not taken back when its new owner frees it.
  EXPECT_EQ(pool.stats().in_use_bytes, before.in_use_bytes);
  stolen = std::vector<std::byte>();
  EXPECT_EQ(pool.stats().retained_blocks, 0u);
}

TEST(BlockPool, LastPayloadHandleReturnsThePooledBuffer) {
  BlockPool& pool = BlockPool::global();
  pool.release_retained();
  Payload q = Payload::wrap(pool.take<std::byte>(BlockPool::kFloor));
  Payload view = q.subview(8, 16);
  q = Payload();
  EXPECT_EQ(pool.stats().retained_blocks, 0u);
  view = Payload();
  EXPECT_EQ(pool.stats().retained_blocks, 1u);
  pool.release_retained();
}

TEST(BlockPoolDeathTest, ReadingARetainedBlockFailsUnderAddressSanitizer) {
  if constexpr (!BlockPool::kPoisonsRetained)
    GTEST_SKIP() << "retained blocks are poisoned in AddressSanitizer builds";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BlockPool pool;
        std::vector<Index> v = pool.take<Index>(elems<Index>(1));
        const volatile Index* stale = v.data();
        pool.give(std::move(v));
        const Index read = stale[0];
        (void)read;
      },
      "use-after-poison");
}

}  // namespace
}  // namespace casp
