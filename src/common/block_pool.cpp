// casp-lint: allow-file(threading) — the lock guards the pool's bookkeeping;
// it starts no thread and holds no vmpi schedule point (DESIGN.md §5p).
#include "common/block_pool.hpp"

#include <algorithm>

#if CASP_BLOCK_POOL_POISON
#include <sanitizer/asan_interface.h>
#endif

namespace casp {

namespace {

template <typename T>
std::size_t block_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename... Ts>
std::size_t block_bytes(const std::variant<Ts...>& b) {
  return std::visit([](const auto& v) { return block_bytes(v); }, b);
}

template <typename T>
void poison(const std::vector<T>& v) {
#if CASP_BLOCK_POOL_POISON
  __asan_poison_memory_region(v.data(), block_bytes(v));
#else
  (void)v;
#endif
}

template <typename T>
void unpoison(const std::vector<T>& v) {
#if CASP_BLOCK_POOL_POISON
  __asan_unpoison_memory_region(v.data(), block_bytes(v));
#else
  (void)v;
#endif
}

/// Frees blocks taken out of the pool, outside its lock.
template <typename Blocks>
void free_blocks(Blocks& blocks) {
  for (auto& b : blocks) std::visit([](const auto& v) { unpoison(v); }, b);
  blocks.clear();
}

}  // namespace

BlockPool& BlockPool::global() {
  alignas(BlockPool) static std::byte storage[sizeof(BlockPool)];
  static BlockPool* const pool = ::new (storage) BlockPool();
  return *pool;
}

std::vector<BlockPool::Handed>::iterator BlockPool::find_handed(
    const void* data) {
  return std::find_if(handed_.begin(), handed_.end(),
                      [data](const Handed& h) { return h.data == data; });
}

template <typename T>
std::vector<T> BlockPool::take_pooled(std::size_t n) {
  std::vector<T> v;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto fits = [n](const Block& b, bool exact) {
      const auto* held = std::get_if<std::vector<T>>(&b);
      return held != nullptr &&
             (exact ? held->capacity() == n
                    : held->capacity() >= n && held->capacity() <= 2 * n);
    };
    auto hit = std::find_if(retained_.rbegin(), retained_.rend(),
                            [&](const Block& b) { return fits(b, true); });
    if (hit == retained_.rend())
      hit = std::find_if(retained_.rbegin(), retained_.rend(),
                         [&](const Block& b) { return fits(b, false); });
    if (hit != retained_.rend()) {
      v = std::move(std::get<std::vector<T>>(*hit));
      retained_.erase(std::next(hit).base());
      const std::size_t bytes = block_bytes(v);
      ++stats_.hits;
        stats_.retained_bytes -= bytes;
      stats_.in_use_bytes += bytes;
      handed_.push_back({v.data(), bytes});
    } else {
      ++stats_.misses;
    }
  }
  if (v.data() != nullptr) {
    unpoison(v);
    v.resize(n);
    return v;
  }

  v = std::vector<T>(n);
  const std::size_t bytes = block_bytes(v);
  std::lock_guard<std::mutex> lock(mu_);
  // A record at this address is stale: its block left without a give().
  if (auto stale = find_handed(v.data()); stale != handed_.end()) {
    stats_.in_use_bytes -= stale->bytes;
    handed_.erase(stale);
  }
  handed_.push_back({v.data(), bytes});
  stats_.in_use_bytes += bytes;
  stats_.high_water_bytes =
      std::max(stats_.high_water_bytes, stats_.in_use_bytes);
  return v;
}

template <typename T>
void BlockPool::give_pooled(std::vector<T>& v) {
  std::vector<Block> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = find_handed(v.data());
    if (it == handed_.end()) return;  // not ours: v frees it
    // A record of another size is stale (its block left without a give()
    // and v reuses the address): drop it and let v free its storage.
    const bool ours = it->bytes == block_bytes(v);
    stats_.in_use_bytes -= it->bytes;
    handed_.erase(it);
    if (!ours) return;
    poison(v);
    stats_.retained_bytes += block_bytes(v);
    retained_.emplace_back(std::move(v));
    // The bound: the oldest blocks go first. v itself always fits, since
    // it was in use and so counts in the high-water mark.
    std::size_t drop = 0;
    while (drop + 1 < retained_.size() &&
           stats_.retained_bytes > stats_.high_water_bytes) {
      stats_.retained_bytes -= block_bytes(retained_[drop]);
      ++drop;
    }
    const auto first = retained_.begin();
    const auto last = first + static_cast<std::ptrdiff_t>(drop);
    evicted.assign(std::make_move_iterator(first), std::make_move_iterator(last));
    retained_.erase(first, last);
    stats_.evictions += drop;
  }
  free_blocks(evicted);
}

void BlockPool::disown_pooled(const void* data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = find_handed(data); it != handed_.end()) {
    stats_.in_use_bytes -= it->bytes;
    handed_.erase(it);
  }
}

void BlockPool::release_retained() {
  std::vector<Block> freed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    freed.swap(retained_);
    stats_.retained_bytes = 0;
  }
  free_blocks(freed);
}

BlockPool::Stats BlockPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.retained_blocks = retained_.size();
  return s;
}

template std::vector<std::byte> BlockPool::take_pooled(std::size_t);
template std::vector<Index> BlockPool::take_pooled(std::size_t);
template std::vector<Value> BlockPool::take_pooled(std::size_t);
template void BlockPool::give_pooled(std::vector<std::byte>&);
template void BlockPool::give_pooled(std::vector<Index>&);
template void BlockPool::give_pooled(std::vector<Value>&);

}  // namespace casp
