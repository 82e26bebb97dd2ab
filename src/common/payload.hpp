// Refcounted immutable byte buffer — the transport currency of the library.
//
// A Payload owns (a share of) one heap allocation that is never written
// after construction. Handing a Payload to another owner copies a pointer,
// not the bytes, so the vmpi collectives can forward a broadcast through
// every binomial-tree hop without re-copying the data, and a received
// matrix can be *viewed* in place (sparse/csc_view.hpp) instead of
// deserialized. Immutability is what makes the sharing safe across rank
// threads: the only synchronization needed is the mailbox handoff itself.
//
// Mutation therefore always goes through an explicit copy:
// `release_or_copy()` gives the caller a private std::vector (moving the
// allocation out only when this handle is the sole owner), and CscView
// materializes to a CscMat before any write. casp_lint's payload-ownership
// rule bans const_cast so nothing can break the contract silently.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/block_pool.hpp"
#include "common/schedhook.hpp"

namespace casp {

class Payload {
 public:
  /// Empty payload (size 0, no allocation).
  Payload() = default;

  Payload(const Payload& other)
      : owner_(other.owner_), offset_(other.offset_), size_(other.size_) {
    if (owner_) {
      const long n =
          owner_->handles.fetch_add(1, std::memory_order_relaxed) + 1;
      CASP_SCHED_EVENT(kHandleAcquire, owner_.get(), n);
    }
  }

  Payload(Payload&& other) noexcept
      : owner_(std::move(other.owner_)),
        offset_(other.offset_),
        size_(other.size_) {
    other.offset_ = 0;
    other.size_ = 0;
  }

  Payload& operator=(const Payload& other) {
    if (this == &other) return *this;
    if (other.owner_) {
      const long n =
          other.owner_->handles.fetch_add(1, std::memory_order_relaxed) + 1;
      CASP_SCHED_EVENT(kHandleAcquire, other.owner_.get(), n);
    }
    drop();
    owner_ = other.owner_;
    offset_ = other.offset_;
    size_ = other.size_;
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this == &other) return *this;
    drop();
    owner_ = std::move(other.owner_);
    offset_ = other.offset_;
    size_ = other.size_;
    other.offset_ = 0;
    other.size_ = 0;
    return *this;
  }

  ~Payload() { drop(); }

  /// Deep-copies `size` bytes — the one copy at the transport API boundary.
  static Payload copy_of(const std::byte* data, std::size_t size) {
    Payload p;
    if (size > 0) {
      count_copy(size);
      p.owner_ = std::make_shared<Buffer>(
          std::vector<std::byte>(data, data + size));
      p.size_ = size;
      CASP_SCHED_EVENT(kBufferCreate, p.owner_.get(), 1);
    }
    return p;
  }

  /// Takes ownership of an existing buffer without copying.
  static Payload wrap(std::vector<std::byte> bytes) {
    Payload p;
    if (!bytes.empty()) {
      p.size_ = bytes.size();
      p.owner_ = std::make_shared<Buffer>(std::move(bytes));
      CASP_SCHED_EVENT(kBufferCreate, p.owner_.get(), 1);
    }
    return p;
  }

  const std::byte* data() const {
    if (owner_)
      CASP_SCHED_EVENT(kAccess, owner_.get(), static_cast<long>(size_));
    return owner_ ? owner_->bytes.data() + offset_ : nullptr;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const std::byte> view() const { return {data(), size_}; }

  /// Sub-range sharing the same allocation (used to slice one broadcast
  /// concatenation into per-rank payloads without copying). A range that
  /// escapes this handle's window throws: silently returning an empty (or
  /// aliased) view would let a corrupted length header read as valid data.
  /// The two comparisons are overflow-safe (offset + length never computed).
  Payload subview(std::size_t offset, std::size_t length) const {
    if (offset > size_ || length > size_ - offset)
      throw std::out_of_range("Payload::subview: range [" +
                              std::to_string(offset) + ", " +
                              std::to_string(offset) + " + " +
                              std::to_string(length) +
                              ") escapes a payload of " +
                              std::to_string(size_) + " bytes");
    Payload p;
    if (length > 0) {
      const long n =
          owner_->handles.fetch_add(1, std::memory_order_relaxed) + 1;
      CASP_SCHED_EVENT(kHandleAcquire, owner_.get(), n);
      p.owner_ = owner_;
      p.offset_ = offset_ + offset;
      p.size_ = length;
    }
    return p;
  }

  /// Number of owners of the underlying allocation (0 when empty).
  long use_count() const {
    return owner_ ? owner_->handles.load(std::memory_order_relaxed) : 0;
  }

  /// Private mutable copy of the bytes. Steals the allocation when this
  /// handle is the unique full-range owner; deep-copies otherwise — the
  /// aliasing-safety boundary for callers of the std::vector-based APIs.
  /// The sole-owner check is an acquire load against the release decrement
  /// every other handle performed on destruction, so the reads those ranks
  /// made through the shared buffer happen-before the move below
  /// (shared_ptr::use_count alone is a relaxed load and cannot give that
  /// ordering — this is why Buffer carries its own handle count).
  std::vector<std::byte> release_or_copy() && {
    if (!owner_) return {};
    if (offset_ == 0 && size_ == owner_->bytes.size()) {
      const long observed =
          owner_->handles.load(std::memory_order_acquire);
      CASP_SCHED_EVENT(kObserveSoleAcquire, owner_.get(), observed);
      if (observed == 1) {
        CASP_SCHED_EVENT(kSteal, owner_.get(), observed);
        std::vector<std::byte> out = std::move(owner_->bytes);
        BlockPool::global().disown(out);
        drop();
        return out;
      }
    }
    count_copy(size_);
    std::vector<std::byte> out(data(), data() + size_);
    drop();
    return out;
  }

#ifdef CASP_VMPI_SCHED
  /// Known-bug corpus instrument (scheduled builds only): release_or_copy
  /// with the PR-2 *relaxed* sole-owner check reintroduced. An observed
  /// count of 1 synchronizes with nothing, so another rank's reads through
  /// a just-dropped handle can race the move — exactly what the
  /// happens-before analyzer must rediscover. Never call outside tests.
  std::vector<std::byte> release_or_copy_relaxed() && {
    if (!owner_) return {};
    if (offset_ == 0 && size_ == owner_->bytes.size()) {
      const long observed =
          owner_->handles.load(std::memory_order_relaxed);
      CASP_SCHED_EVENT(kObserveSoleRelaxed, owner_.get(), observed);
      if (observed == 1) {
        CASP_SCHED_EVENT(kSteal, owner_.get(), observed);
        std::vector<std::byte> out = std::move(owner_->bytes);
        BlockPool::global().disown(out);
        drop();
        return out;
      }
    }
    count_copy(size_);
    std::vector<std::byte> out(data(), data() + size_);
    drop();
    return out;
  }

  /// Known-bug corpus instrument (scheduled builds only): mutate the bytes
  /// in place through a shared handle, violating the immutability contract
  /// on purpose so the analyzer can flag mutation-after-send.
  std::byte* unsafe_mutable_data() {
    if (!owner_) return nullptr;
    CASP_SCHED_EVENT(kMutate, owner_.get(), static_cast<long>(size_));
    return owner_->bytes.data() + offset_;
  }

  /// Stable identity of the owning allocation for the happens-before
  /// analyzer (null for empty payloads).
  const void* buffer_id() const { return owner_.get(); }
#endif

  /// Global count of deep copies performed through Payload (bench/test
  /// instrumentation for the "copies per broadcast" claims).
  static std::uint64_t deep_copies() {
    return copy_counter().load(std::memory_order_relaxed);
  }

 private:
  // Bytes are immutable while shared; `handles` counts live Payload handles
  // on this buffer (released with memory_order_release in drop()) so
  // release_or_copy can prove sole ownership with proper ordering before
  // mutating `bytes`. The shared_ptr only manages lifetime; the last
  // owner's drop returns the bytes to the block pool.
  struct Buffer {
    explicit Buffer(std::vector<std::byte> b) : bytes(std::move(b)) {}
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    ~Buffer() { BlockPool::global().give(std::move(bytes)); }
    std::vector<std::byte> bytes;
    std::atomic<long> handles{1};
  };

  void drop() noexcept {
    if (owner_) {
      const long n =
          owner_->handles.fetch_sub(1, std::memory_order_release) - 1;
      CASP_SCHED_EVENT(kHandleRelease, owner_.get(), n);
      owner_.reset();
    }
    offset_ = 0;
    size_ = 0;
  }

  static void count_copy(std::size_t size) {
    if (size > 0) copy_counter().fetch_add(1, std::memory_order_relaxed);
  }
  static std::atomic<std::uint64_t>& copy_counter() {
    static std::atomic<std::uint64_t> counter{0};
    return counter;
  }

  std::shared_ptr<Buffer> owner_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

}  // namespace casp
