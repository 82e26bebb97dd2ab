// Virtual message-passing communicator — the library's MPI substitute.
//
// Ranks are threads inside one OS process, but the programming model is
// pure distributed memory: messages travel through per-rank mailboxes and
// receivers can never observe a sender's later writes. Data is carried as
// refcounted immutable Payload handles (common/payload.hpp): a send copies
// the bytes once at the API boundary, and collectives forward the *handle*
// through every tree hop instead of re-copying — while TrafficStats still
// charges the full logical bytes per hop, so the message/byte counts match
// the latency/bandwidth terms in the paper's Table II exactly. Collectives
// are built over point-to-point with the textbook algorithms (binomial-tree
// broadcast/reduce, dissemination barrier, pairwise all-to-all).
// Communicator splitting mirrors MPI_Comm_split, giving SUMMA its row /
// column / fiber / layer communicators.
//
// When compiled with CASP_VMPI_CHECK (the default; sanitizer builds force
// it on), every collective stamps an (op, seq, root, payload) fingerprint
// into the message header — see check.hpp — so mismatched collective order,
// mismatched roots and divergent allreduce lengths abort the job with a
// per-rank diagnostic instead of deadlocking or corrupting results.
//
// Payload handles are the primary surface; the typed helpers (send_vec,
// allgather_vec, allreduce, …) are thin wrappers over them. The byte-vector
// forms that predated the Payload transport (send_bytes and friends) are
// gone — casp_lint's comm-compat rule forbids reintroducing them anywhere.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/payload.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "obs/recorder.hpp"
#include "vmpi/check.hpp"
#include "vmpi/faults.hpp"
#include "vmpi/traffic.hpp"

namespace casp::vmpi {

/// Thrown in every blocked rank when some rank aborts with an exception, so
/// the whole virtual job tears down instead of deadlocking.
class Aborted : public std::runtime_error {
 public:
  Aborted() : std::runtime_error("virtual MPI job aborted by another rank") {}
};

#ifdef CASP_VMPI_SCHED
class SchedState;  // vmpi/sched.hpp — casp-verify scheduled-run state
#endif

namespace detail {

/// One mailbox entry. A message is a head `payload` followed by an ordered
/// gather list of `parts`. A sparse-exchange reply has parts (its head is
/// empty and its parts are the whole reply, summa/sparse_comm.hpp), and so
/// does a gather_payloads message of more than one payload.
/// Whatever the part count, a message is one send: post_message
/// records it once in TrafficStats with the total bytes, stamps it once for
/// the CollectiveChecker, covers head and parts with one frame checksum in
/// fault runs, and (CASP_VMPI_SCHED) hands every carried buffer to the
/// happens-before analyzer, so the receiver owns each one. The receiver
/// gets the parts in the order they were posted, as the same handles.
struct Message {
  std::uint64_t context;
  int src_world;  ///< sender's world rank
  int tag;
  /// Immutable shared handle: tree collectives forward it hop-to-hop
  /// without re-copying the bytes.
  Payload payload;
  /// Gather-list parts after the head, each a handle (often a subview of
  /// one sender buffer), so a multi-part reply costs no byte copies.
  std::vector<Payload> parts;
  /// Sender declared this message may legitimately go unreceived; exempts
  /// it from the job-end tag-leak sweep.
  bool fire_and_forget = false;
#ifdef CASP_VMPI_CHECK
  /// Fingerprint of the collective the sender was executing (op == kNone
  /// for plain point-to-point traffic).
  CollectiveStamp stamp;
  /// End-to-end XXH64 checksum over the head, then every part in
  /// order (one frame checksum per message). Stamped by post_message and
  /// re-verified on delivery *only when a fault plan is armed* — fault-free
  /// runs (and therefore the release perf gates) never hash a byte. A
  /// mismatch on delivery counts vmpi.checksum_rejects and raises
  /// TransientCommError: corruption must surface as a transport fault, not
  /// as wrong C.
  std::uint64_t checksum = 0;
  bool has_checksum = false;
#endif
#ifdef CASP_VMPI_SCHED
  /// Happens-before analyzer message id (0 outside scheduled runs): the
  /// receiver joins the sender's vector-clock snapshot through this edge.
  std::uint64_t hb_id = 0;
#endif

  /// Head plus parts: the bytes this message puts on the wire.
  std::size_t bytes() const {
    std::size_t total = payload.size();
    for (const Payload& p : parts) total += p.size();
    return total;
  }
};

#ifdef CASP_VMPI_CHECK
/// A stamped message still sitting in a mailbox at job end — evidence that
/// ranks disagreed on a collective's shape (e.g. two ranks both believing
/// they were the bcast root).
struct LeftoverCollective {
  int src_world = -1;
  int tag = 0;
  CollectiveStamp stamp;
};

/// A user-tag (tag >= 0) message still sitting in a mailbox at job end and
/// not marked fire-and-forget — a send the matching receive never consumed.
struct LeftoverMessage {
  int src_world = -1;
  int tag = 0;
  std::size_t bytes = 0;
};
#endif

/// One per world rank: MPSC mailbox with (context, src, tag) matching.
class Mailbox {
 public:
  void push(Message msg);
  /// Blocks until a matching message arrives or the job aborts.
  Message pop(std::uint64_t context, int src_world, int tag);
  /// True if a queued message matches (context, src, tag). Used by the
  /// deadlock watchdog to distinguish "blocked but about to wake" from
  /// "blocked forever".
  bool has_match(std::uint64_t context, int src_world, int tag);
  /// Non-blocking matched pop: true and fills `out` when a message matches.
  /// Scheduled runs re-check the mailbox through this before parking in the
  /// scheduler, which (with single-token execution) makes lost wakeups
  /// structurally impossible. Throws Aborted after abort_all.
  bool try_pop(std::uint64_t context, int src_world, int tag, Message& out);
  void abort_all();
#ifdef CASP_VMPI_CHECK
  std::vector<LeftoverCollective> stamped_leftovers();
  std::vector<LeftoverMessage> user_tag_leftovers();
#endif

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool aborted_ = false;
};

/// Watchdog-visible status of one rank: whether it is blocked in a receive
/// (and on what), whether its thread finished, and — under CASP_VMPI_CHECK —
/// which collective it is inside plus a ring of recent collective entries
/// (the per-rank "collective backtrace" dumped on deadlock).
struct RankStatus {
  std::mutex mutex;
  bool blocked = false;
  bool finished = false;
  std::uint64_t wait_context = 0;
  int wait_src_world = -1;
  int wait_tag = 0;
#ifdef CASP_VMPI_CHECK
  CollectiveStamp current;
  /// Context of the communicator `current` runs on; pairs with World's
  /// split-ancestry map so the watchdog can name parent/child interleaving.
  std::uint64_t current_context = 0;
  std::array<CollectiveStamp, 8> history{};
  std::uint64_t history_count = 0;
#endif
};

/// Shared state of a virtual job: p mailboxes + per-rank status + abort flag.
struct World {
  explicit World(int size)
      : mailboxes(static_cast<std::size_t>(size)),
        status(static_cast<std::size_t>(size)) {}
  std::vector<Mailbox> mailboxes;
  std::vector<RankStatus> status;
  /// Job-wide time base: every rank's Recorder copies this stopwatch so
  /// cross-rank timeline timestamps are directly comparable.
  Stopwatch epoch;
  /// Bumped on every delivery (push or successful pop); the watchdog only
  /// trusts an all-blocked sample when this is stable across samples.
  std::atomic<std::uint64_t> progress{0};
  std::atomic<int> blocked{0};
  std::atomic<int> finished{0};
  /// Deterministic fault-injection state (vmpi/faults.hpp); null when the
  /// job runs without faults — the common case costs one pointer check per
  /// transport op.
  std::shared_ptr<FaultState> faults;
#ifdef CASP_VMPI_SCHED
  /// casp-verify scheduled-run state (scheduler + happens-before analyzer);
  /// null outside scheduled runs — the common case costs one pointer check
  /// per transport op, mirroring `faults`.
  std::shared_ptr<SchedState> sched;
#endif
#ifdef CASP_VMPI_CHECK
  /// Split ancestry (child context -> parent context; the world is context
  /// 0 and has no entry). Lets the watchdog distinguish a generic deadlock
  /// from parent/child collective interleaving in rank-divergent orders.
  std::mutex comm_tree_mutex;
  std::map<std::uint64_t, std::uint64_t> comm_parent;
#endif
  /// Wake every blocked rank with Aborted (and, in a scheduled run, release
  /// the scheduler token so all threads can tear down). Out of line because
  /// SchedState is incomplete here.
  void abort_all();
};

}  // namespace detail

#ifdef CASP_VMPI_CHECK
/// RAII guard marking "this rank is inside collective X on this
/// communicator". Every entry gets the next per-communicator sequence
/// number; nested entries (the broadcast inside allreduce, the allgather
/// inside split) save and restore the enclosing stamp so send/recv always
/// see the innermost collective.
class CollectiveScope {
 public:
  CollectiveScope(class Comm& comm, CollectiveOp op, int root,
                  std::uint64_t payload);
  ~CollectiveScope();
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  class Comm& comm_;
  CollectiveStamp saved_;
  std::uint64_t saved_context_ = 0;
};

#define CASP_VMPI_COLLECTIVE(op, root, payload) \
  ::casp::vmpi::CollectiveScope casp_collective_scope_ { *this, op, root, payload }
#else
#define CASP_VMPI_COLLECTIVE(op, root, payload) \
  do {                                          \
  } while (0)
#endif

/// Handle for a nonblocking broadcast posted with Comm::ibcast_payload.
/// The root's sends happen at post time; a non-root pulls its copy (and
/// forwards to its binomial-tree children) when the posting rank calls
/// Comm::bcast_wait. Each post draws a distinct tag so trees of adjacent
/// pipeline stages can be in flight on the same communicator at once.
class PendingBcast {
 public:
  PendingBcast() = default;
  bool valid() const { return root_ >= 0; }

 private:
  friend class Comm;
  int root_ = -1;
  int tag_ = 0;
  bool done_ = false;
  Payload data_;  ///< root: the input; non-root: filled at wait
#ifdef CASP_VMPI_CHECK
  CollectiveStamp stamp_;  ///< created at post, verified/forwarded at wait
#endif
};

/// One peer's reply in a sparse exchange: the parts to ship (built as
/// subview handles into the sender's packed block, so no block bytes are
/// copied) plus the byte volume a dense full-block send to this peer would
/// have carried. The comm layer ships all parts as one gather-list message
/// and charges max(0, dense_equivalent - shipped) as logical-only traffic
/// (TrafficStats::record_unshipped), so run reports expose the measured
/// savings against the dense Table II accounting.
struct SparseReply {
  std::vector<Payload> parts;
  Bytes dense_equivalent_bytes = 0;
};

/// Root-side serve callback of a sparse exchange: invoked once per peer
/// with the peer's communicator-local rank and its request payload.
using SparseServeFn = std::function<SparseReply(int src, Payload request)>;

/// Handle for a sparse request/reply exchange posted with
/// Comm::isparse_exchange. Non-roots send their need-list at post time; the
/// root serves every peer (and peers receive their replies) in sparse_wait.
/// Each post draws a distinct (request, data) tag pair so exchanges of
/// adjacent pipeline stages can be in flight on the same communicator.
class PendingSparse {
 public:
  PendingSparse() = default;
  bool valid() const { return root_ >= 0; }

 private:
  friend class Comm;
  int root_ = -1;
  int req_tag_ = 0;
  int data_tag_ = 0;
  bool done_ = false;
#ifdef CASP_VMPI_CHECK
  CollectiveStamp stamp_;  ///< created at post, verified at wait
#endif
};

/// Per-rank communicator handle. Not thread-safe; each rank owns its own.
class Comm {
 public:
  /// World communicator for `rank` of `size` (constructed by Runtime).
  Comm(std::shared_ptr<detail::World> world, int world_rank, int size);

  int rank() const { return rank_; }
  int size() const { return size_; }

  // -- Point-to-point (ranks are communicator-local) ----------------------

  /// Hands an already-refcounted buffer to `dest` without copying the
  /// bytes. `fire_and_forget` exempts the message from the job-end
  /// tag-leak sweep (for sends the receiver may legitimately drop).
  void send_payload(int dest, int tag, Payload payload,
                    bool fire_and_forget = false);
  Payload recv_payload(int src, int tag);

  /// Typed helpers over the payload primitives: one deep copy at the send
  /// boundary, one private buffer at the receive boundary.
  template <typename T>
  void send_vec(int dest, int tag, const std::vector<T>& data) {
    send_payload(dest, tag, pack_vec<T>(data));
  }

  template <typename T>
  std::vector<T> recv_vec(int src, int tag) {
    return unpack_vec<T>(recv_payload(src, tag));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_payload(dest, tag,
                 Payload::copy_of(reinterpret_cast<const std::byte*>(&v),
                                  sizeof(T)));
  }

  template <typename T>
  T recv_value(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Payload p = recv_payload(src, tag);
    CASP_CHECK(p.size() == sizeof(T));
    T v;
    std::memcpy(&v, p.data(), sizeof(T));
    return v;
  }

  // -- Collectives ---------------------------------------------------------

  /// Dissemination barrier: ceil(lg p) rounds.
  void barrier();

  /// Binomial-tree broadcast from `root`; every rank returns a handle to
  /// the *same* allocation (the root's input) — no per-hop copies.
  Payload bcast_payload(int root, Payload data);

  /// Nonblocking broadcast: the root publishes its sends immediately so
  /// receivers can overlap compute with the in-flight data; every rank must
  /// later call bcast_wait on the returned handle, in the same order on all
  /// ranks. `data` is ignored on non-roots.
  PendingBcast ibcast_payload(int root, Payload data);
  /// Completes a pending broadcast: non-roots receive and forward to their
  /// tree children here. Returns the broadcast payload on every rank.
  Payload bcast_wait(PendingBcast& pending);

  /// Sparse request/reply exchange ("sparse-exchange" collective): every
  /// rank posts with the same root in SPMD order. Non-roots send `request`
  /// (their app-defined need-list) to the root immediately so the metadata
  /// round overlaps whatever the root is still computing; `request` is
  /// ignored on the root.
  PendingSparse isparse_exchange(int root, Payload request);
  /// Completes the exchange. The root calls `serve` once per peer (in
  /// ascending rank order), ships each reply as one gather-list message,
  /// and returns an empty vector (the root reads its own block locally).
  /// Every non-root returns its reply's parts in sent order; `serve` is
  /// not invoked. A reply is one message, a request another: 2 messages
  /// per (exchange, peer), the α term model/costs.cpp charges.
  std::vector<Payload> sparse_wait(PendingSparse& pending,
                                   const SparseServeFn& serve);

  /// Binomial-tree reduce to root followed by broadcast. `op` must be
  /// associative and commutative; applied elementwise on equal-length
  /// vectors.
  template <typename T>
  std::vector<T> allreduce(std::vector<T> data,
                           const std::function<T(T, T)>& op) {
    std::vector<T> reduced;
    {
      CASP_VMPI_COLLECTIVE(
          CollectiveOp::kReduce, 0,
          static_cast<std::uint64_t>(data.size() * sizeof(T)));
      reduced = reduce_to_root(std::move(data), op);
    }
    Payload p;
    if (rank_ == 0) p = pack_vec<T>(reduced);
    return unpack_vec<T>(bcast_payload(0, std::move(p)));
  }

  template <typename T>
  T allreduce_sum(T v) {
    auto out = allreduce<T>({v}, [](T a, T b) { return a + b; });
    return out.at(0);
  }
  template <typename T>
  T allreduce_max(T v) {
    auto out = allreduce<T>({v}, [](T a, T b) { return a > b ? a : b; });
    return out.at(0);
  }
  template <typename T>
  T allreduce_min(T v) {
    auto out = allreduce<T>({v}, [](T a, T b) { return a < b ? a : b; });
    return out.at(0);
  }

  /// Gather to `root`, one message per other rank: rank r's `mine` arrives
  /// whole, its first payload as the message head and the rest as
  /// gather-list parts. Root returns size() lists, entry r holding rank r's
  /// payloads in order (entry root is its own `mine`); every other rank
  /// returns an empty vector.
  std::vector<std::vector<Payload>> gather_payloads(int root,
                                                    std::vector<Payload> mine);

  /// All-gather of one payload per rank: the same gather to rank 0, then a
  /// broadcast of the concatenation. Returns size() handles; on every rank
  /// they are subviews of one shared concatenation buffer.
  std::vector<Payload> allgather_payload(Payload mine);

  template <typename T>
  std::vector<T> allgather_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<Payload> all = allgather_payload(
        Payload::copy_of(reinterpret_cast<const std::byte*>(&v), sizeof(T)));
    std::vector<T> out(all.size());
    for (std::size_t r = 0; r < all.size(); ++r) {
      CASP_CHECK(all[r].size() == sizeof(T));
      std::memcpy(&out[r], all[r].data(), sizeof(T));
    }
    return out;
  }

  /// All-gather of a variable-length typed vector per rank; returns the
  /// rank-ordered concatenation of every rank's elements.
  template <typename T>
  std::vector<T> allgather_vec(const std::vector<T>& mine) {
    std::vector<Payload> all = allgather_payload(pack_vec<T>(mine));
    std::size_t total = 0;
    for (const Payload& p : all) total += p.size();
    CASP_CHECK(total % sizeof(T) == 0);
    std::vector<T> out(total / sizeof(T));
    auto* dst = reinterpret_cast<std::byte*>(out.data());
    static_assert(std::is_trivially_copyable_v<T>);
    for (const Payload& p : all) {
      if (p.size() == 0) continue;
      std::memcpy(dst, p.data(), p.size());
      dst += p.size();
    }
    return out;
  }

  /// Personalized all-to-all (pairwise exchange, p-1 rounds). buffers[d] is
  /// sent to rank d; returns one handle per source rank, shared with the
  /// sender's allocation.
  std::vector<Payload> alltoall_payload(std::vector<Payload> buffers);

  /// MPI_Comm_split: ranks with the same color form a child communicator,
  /// ordered by (key, rank).
  Comm split(int color, int key);

  // -- Instrumentation ------------------------------------------------------

  /// The rank's unified observability recorder (timeline spans, tags,
  /// counters, memory samples); split communicators share their parent's.
  obs::Recorder& recorder() { return *recorder_; }

  TrafficStats& traffic() { return recorder_->traffic(); }
  TimeAccumulator& times() { return recorder_->times(); }

  /// Set both the traffic phase and the timing context for a scope.
  void set_phase(const std::string& phase) { traffic().set_phase(phase); }

  /// My world rank (the communicator-local rank mapped through members_);
  /// what failure reports and the fault plan key decisions on.
  int world_rank() const {
    return members_[static_cast<std::size_t>(rank_)];
  }

  /// The job's fault-injection state, or null when faults are disabled.
  /// Used by arm_alloc_faults to hook a MemoryTracker into the plan.
  detail::FaultState* fault_state() const { return world_->faults.get(); }

 private:
  /// Pack a trivially-copyable vector into a fresh payload (the one deep
  /// copy at the typed-API boundary).
  template <typename T>
  static Payload pack_vec(const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Payload::copy_of(reinterpret_cast<const std::byte*>(data.data()),
                            data.size() * sizeof(T));
  }

  /// Unpack a payload into a private typed vector.
  template <typename T>
  static std::vector<T> unpack_vec(const Payload& p) {
    static_assert(std::is_trivially_copyable_v<T>);
    CASP_CHECK(p.size() % sizeof(T) == 0);
    std::vector<T> out(p.size() / sizeof(T));
    if (p.size() != 0) std::memcpy(out.data(), p.data(), p.size());
    return out;
  }

  template <typename T>
  std::vector<T> reduce_to_root(std::vector<T> data,
                                const std::function<T(T, T)>& op) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Binomial tree: in round k, ranks with bit k set send to rank - 2^k.
    const int p = size_;
    int mask = 1;
    while (mask < p) {
      if ((rank_ & mask) != 0) {
        send_vec<T>(rank_ - mask, kReduceTag, data);
        return data;  // contribution absorbed; final value via bcast
      }
      if (rank_ + mask < p) {
        std::vector<T> other = recv_vec<T>(rank_ + mask, kReduceTag);
        CASP_CHECK_MSG(other.size() == data.size(),
                       "allreduce: length mismatch across ranks");
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] = op(data[i], other[i]);
      }
      mask <<= 1;
    }
    return data;
  }

  Comm(std::shared_ptr<detail::World> world, std::uint64_t context,
       std::vector<int> members, int my_pos);

  /// gather_payloads under the CollectiveChecker stamp `op`, so the
  /// allgather keeps its own.
  std::vector<std::vector<Payload>> gather_to(int root,
                                              std::vector<Payload> mine,
                                              CollectiveOp op);

  /// Enqueue a message for `dest`, recording the full logical bytes in
  /// TrafficStats (handle forwarding never discounts a hop). `parts`, when
  /// given, follow `payload` in the same message (detail::Message).
  void post_message(int dest, int tag, Payload payload, bool fire_and_forget,
                    std::vector<Payload> parts = {});
  /// Blocking matched receive with watchdog bookkeeping; stamp verification
  /// is the caller's job (recv paths check against the current collective,
  /// bcast_wait against the stamp saved at post time).
  detail::Message take_message(int src, int tag);

#ifdef CASP_VMPI_CHECK
  friend class CollectiveScope;
  /// Abort with a CollectiveMismatch if `msg` carries a collective stamp
  /// that disagrees with the collective this rank is currently inside.
  void verify_collective_stamp(const detail::Message& msg, int src);
  /// Abort if `msg`'s stamp disagrees with `expected` (the stamp a pending
  /// ibcast saved at post time — current_collective_ is stale by wait time).
  void verify_stamp_against(const detail::Message& msg, int src,
                            const CollectiveStamp& expected);
#endif

  static constexpr int kReduceTag = -101;
  static constexpr int kBcastTag = -102;
  static constexpr int kBarrierTag = -103;
  static constexpr int kGatherTag = -104;
  static constexpr int kAlltoallTag = -105;
  static constexpr int kSplitTag = -106;
  /// Nonblocking broadcasts draw from their own tag space so overlapping
  /// trees (pipeline stage s and s+1) can never cross-match in the mailbox.
  static constexpr int kIbcastTagBase = -200;
  static constexpr int kIbcastTagSlots = 1024;
  /// Sparse exchanges draw a (request, data) tag pair per post from two
  /// reserved spaces below the ibcast range, so in-flight exchanges can
  /// never cross-match each other or any broadcast tree.
  static constexpr int kSparseReqTagBase = -2000;
  static constexpr int kSparseDataTagBase = -3100;
  static constexpr int kSparseTagSlots = 1024;

  std::shared_ptr<detail::World> world_;
  std::uint64_t context_;
  std::vector<int> members_;  ///< communicator-local rank -> world rank
  int rank_;
  int size_;
  std::uint64_t split_counter_ = 0;
  /// SPMD-consistent count of ibcast posts on this communicator; derives
  /// the per-call tag. Identical across ranks because every rank posts the
  /// same broadcasts in the same order.
  std::uint64_t ibcast_counter_ = 0;
  /// SPMD-consistent count of sparse-exchange posts; mirrors
  /// ibcast_counter_ for the sparse tag spaces.
  std::uint64_t sparse_counter_ = 0;
#ifdef CASP_VMPI_CHECK
  CollectiveStamp current_collective_;
  std::uint64_t collective_seq_ = 0;
#endif
  // Shared across all Comm objects of this rank so phase labels, timings
  // and timeline spans aggregate rank-wide (a split communicator inherits
  // its parent's recorder).
  std::shared_ptr<obs::Recorder> recorder_;
};

}  // namespace casp::vmpi
