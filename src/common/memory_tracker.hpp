// Memory accounting for the memory-constrained execution mode.
//
// On Cori the constraint is physical: 112 GB per KNL node. Here the
// constraint is configured: each virtual rank gets a byte budget, every
// nonzero buffer the distributed algorithm materializes is charged against
// it, and exceeding it throws MemoryError. Symbolic3D exists to pick the
// batch count b so this never fires — and when its estimate is wrong,
// BatchedSUMMA3D probes each batch inside a soft "probe window" (see
// begin_probe) and re-batches instead of dying mid-collective.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"

namespace casp {

/// Tracks live and peak bytes against an optional budget. Thread-safe: the
/// budget check and the charge commit are a single CAS on the live count,
/// so two racing allocations can never jointly slip past the budget (and a
/// failed allocation never transiently inflates what a third thread sees).
class MemoryTracker {
 public:
  /// budget == 0 means unlimited.
  explicit MemoryTracker(Bytes budget = 0) : budget_(budget) {}

  /// Charge `bytes`; throws MemoryError if this would exceed the budget
  /// (unless a probe window is open — then the charge is taken anyway and
  /// the window is marked overrun). The injected-failure hook, when armed,
  /// is consulted first and fails the allocation the same way.
  void allocate(Bytes bytes, const char* what = "buffer");

  /// Release a previous charge.
  void release(Bytes bytes);

  Bytes live() const { return live_.load(std::memory_order_relaxed); }
  Bytes peak() const { return peak_.load(std::memory_order_relaxed); }
  Bytes budget() const { return budget_; }
  void reset_peak() { peak_.store(live()); }

  // -- Probe window (BatchedSUMMA3D's re-batch protocol) -------------------
  //
  // While a probe window is open, an allocation that would exceed the
  // budget is charged anyway and recorded as an overrun instead of
  // throwing. A rank that threw mid-batch would strand its peers inside
  // the batch's collectives; probing lets every rank reach the batch
  // boundary, agree on the overrun via an allreduce, release the batch's
  // partial state and retry at a finer batch granularity. The transient
  // over-budget peak is reported honestly via peak().

  /// Open the window (clears the overrun flag). Not reentrant.
  void begin_probe() {
    overrun_.store(false, std::memory_order_relaxed);
    probing_.store(true, std::memory_order_relaxed);
  }
  /// Close the window; returns true iff any allocation overran inside it.
  bool end_probe() {
    probing_.store(false, std::memory_order_relaxed);
    return overrun_.load(std::memory_order_relaxed);
  }
  bool probing() const { return probing_.load(std::memory_order_relaxed); }

  // -- Injected allocation failures ----------------------------------------

  /// Hook consulted at the top of allocate(); returning true fails the
  /// allocation (MemoryError outside a probe window, overrun inside one).
  /// Armed by vmpi::arm_alloc_faults; set before sharing the tracker across
  /// threads — the hook itself must be thread-safe.
  using FailureHook = std::function<bool(Bytes bytes, const char* what)>;
  void set_failure_hook(FailureHook hook) { failure_hook_ = std::move(hook); }

 private:
  Bytes budget_;
  std::atomic<Bytes> live_{0};
  std::atomic<Bytes> peak_{0};
  std::atomic<bool> probing_{false};
  std::atomic<bool> overrun_{false};
  FailureHook failure_hook_;
};

/// RAII charge: holds `bytes` on a tracker for the scope's lifetime.
class MemoryCharge {
 public:
  MemoryCharge() : tracker_(nullptr), bytes_(0) {}
  MemoryCharge(MemoryTracker& tracker, Bytes bytes, const char* what = "buffer")
      : tracker_(&tracker), bytes_(bytes) {
    tracker_->allocate(bytes_, what);
  }
  ~MemoryCharge() { reset(); }
  MemoryCharge(MemoryCharge&& other) noexcept
      : tracker_(other.tracker_), bytes_(other.bytes_) {
    other.tracker_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryCharge& operator=(MemoryCharge&& other) noexcept {
    if (this != &other) {
      reset();
      tracker_ = other.tracker_;
      bytes_ = other.bytes_;
      other.tracker_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

  void reset() {
    if (tracker_ != nullptr) tracker_->release(bytes_);
    tracker_ = nullptr;
    bytes_ = 0;
  }
  Bytes bytes() const { return bytes_; }

 private:
  MemoryTracker* tracker_;
  Bytes bytes_;
};

}  // namespace casp
