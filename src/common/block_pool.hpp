// Process-wide recycling of large arrays (DESIGN.md §5p).
//
// A job's large buffers — a rank's fiber wire image, Merge-Fiber's exact C
// arrays — come back with the same shapes in the next batch and the next
// job, yet a fresh allocation of that size always brings fresh pages from
// the kernel: it passes malloc's mmap threshold, or lands in a per-thread
// heap that glibc unmaps once it is empty, and every page then faults on
// first touch. The pool keeps such a block after its last owner returns
// it and hands it to the next request that fits, still mapped.
//
//  - Floor: only blocks of at least kFloor bytes enter. Smaller requests
//    and returns bypass the pool without taking its lock; glibc already
//    recycles those warm.
//  - Fit: a request for n elements takes a retained block of the same
//    element type whose capacity is exactly n, else the most recently
//    returned one with capacity in [n, 2n] (LIFO); otherwise it allocates.
//  - Ownership: only blocks the pool handed out come back; give() frees any
//    other block as its owner would have.
//  - Bound: the pool never retains more bytes than the most bytes of its
//    blocks that were ever in use at once (its high-water mark). A return
//    that would pass the mark frees the oldest retained blocks first. So
//    the pool at most doubles the large-block memory the workload itself
//    once needed at one time, and in a steady loop it holds exactly the
//    blocks the next batch or job takes back.
//
// A reused block's contents are unspecified: every caller writes an element
// before it reads it. The pool sits below MemoryTracker and charges nothing.
// Under AddressSanitizer a retained block is poisoned, so a read through a
// pointer that outlived its owner fails loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CASP_BLOCK_POOL_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CASP_BLOCK_POOL_POISON 1
#endif
#endif
#ifndef CASP_BLOCK_POOL_POISON
#define CASP_BLOCK_POOL_POISON 0
#endif

namespace casp {

class BlockPool {
 public:
  /// Smallest block, in bytes, the pool keeps.
  static constexpr std::size_t kFloor = std::size_t{4} << 20;
  /// Whether retained blocks are poisoned (AddressSanitizer builds).
  static constexpr bool kPoisonsRetained = CASP_BLOCK_POOL_POISON != 0;

  struct Stats {
    std::uint64_t hits = 0;       // requests served by a retained block
    std::uint64_t misses = 0;     // requests at or above the floor that allocated
    std::uint64_t evictions = 0;  // retained blocks freed by the bound
    std::size_t retained_blocks = 0;
    std::size_t retained_bytes = 0;
    std::size_t in_use_bytes = 0;      // handed out and not yet returned
    std::size_t high_water_bytes = 0;  // the most in_use_bytes ever
  };

  /// The pool every library buffer uses. Never destroyed, so an owner that
  /// outlives static destruction still has a pool to return to.
  static BlockPool& global();

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool() { release_retained(); }

  /// n elements of unspecified value. T is std::byte, Index or Value.
  template <typename T>
  std::vector<T> take(std::size_t n) {
    if (n * sizeof(T) < kFloor) return std::vector<T>(n);
    return take_pooled<T>(n);
  }

  /// Returns v's storage and leaves v empty when the pool keeps it; a block
  /// below the floor stays with v and is freed with it.
  template <typename T>
  void give(std::vector<T>&& v) {
    if (v.capacity() * sizeof(T) >= kFloor) give_pooled(v);
  }

  /// v, handed out by this pool, leaves it for good (its new owner frees
  /// it): its bytes no longer count as in use.
  template <typename T>
  void disown(const std::vector<T>& v) {
    if (v.capacity() * sizeof(T) >= kFloor) disown_pooled(v.data());
  }

  /// Frees every retained block.
  void release_retained();

  Stats stats() const;

 private:
  using Block = std::variant<std::vector<std::byte>, std::vector<Index>,
                             std::vector<Value>>;
  struct Handed {
    const void* data;
    std::size_t bytes;
  };

  template <typename T>
  std::vector<T> take_pooled(std::size_t n);
  template <typename T>
  void give_pooled(std::vector<T>& v);
  void disown_pooled(const void* data);
  /// Under mu_: the handed-out record of `data`, or handed_.end().
  std::vector<Handed>::iterator find_handed(const void* data);

  // The lock guards bookkeeping only: nothing inside it allocates a block,
  // frees one or reaches a vmpi schedule point.
  mutable std::mutex mu_;  // casp-lint: allow(threading)
  std::vector<Block> retained_;  // oldest first; the back is the newest
  std::vector<Handed> handed_;   // blocks out of the pool right now
  Stats stats_;
};

}  // namespace casp
