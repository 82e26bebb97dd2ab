// Vector-clock happens-before analysis for the casp-verify plane.
//
// Under a scheduled run (CASP_VMPI_SCHED + an active SchedPlan) every vmpi
// message and collective tree hop carries a vector-clock snapshot, and every
// Payload refcount transition / MemoryTracker commit reports through the
// schedhook bridge. This analyzer folds those events into per-rank vector
// clocks and flags logical races that no single interleaving can prove or
// disprove on its own:
//
//   sole_owner_race      release_or_copy stole a buffer whose other owners'
//                        releases are not happens-before ordered against the
//                        steal (the PR-2 relaxed sole-owner check, kept as
//                        release_or_copy_relaxed for the known-bug corpus).
//   mutation_after_send  bytes mutated in place after the buffer was handed
//                        to the transport, concurrent with a receiver's use.
//   payload_ownership    a rank acquired or read a buffer that was never
//                        handed to it through a message — zero-copy data
//                        crossed ranks outside the transport.
//   use_after_release    a rank read a buffer after another rank reclaimed
//                        the allocation for mutation, without ordering.
//   racing_send          two happens-before-concurrent sends from different
//                        ranks target the same (dest, user tag) — receive
//                        matching disambiguates only by source, so the
//                        arrival order is schedule-dependent.
//
// The analyzer is logical: it reasons about the synchronization the program
// actually has (message edges + acquire/release refcount edges), so one
// explored schedule in which both conflicting events occur is enough to
// flag a race, even if that schedule happened to execute them "safely".
//
// All entry points run on the rank thread that holds the scheduler token,
// so the analyzer is single-threaded by construction and needs no locks.
#pragma once

#ifdef CASP_VMPI_SCHED

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/schedhook.hpp"

namespace casp::vmpi {

/// One analyzer verdict. `kind` is machine-readable (see header comment);
/// `rank` is the world rank whose event completed the race (-1 for
/// job-level findings); `detail` is the human-readable diagnostic line.
struct SchedFinding {
  std::string kind;
  int rank = -1;
  std::string detail;
};

namespace hb {

using VectorClock = std::vector<std::uint64_t>;

/// a ≤ b componentwise (a happens-before-or-equals b).
bool clock_leq(const VectorClock& a, const VectorClock& b);
/// a := join(a, b) (componentwise max).
void clock_join(VectorClock& a, const VectorClock& b);

/// The happens-before engine. Owned by SchedState; one per scheduled run.
class Analyzer {
 public:
  explicit Analyzer(int size);

  // -- Message edges -------------------------------------------------------

  /// Sender-side: snapshot the sender's clock, remember the buffers the
  /// message carries (its head and every gather-list part; null entries are
  /// empty payloads), run the racing-send check for user tags. Returns the
  /// message id the transport stamps into the Message (every send gets an
  /// id, even one carrying only empty payloads).
  std::uint64_t on_send(int rank, std::uint64_t context, int dest_world,
                        int tag, std::span<const void* const> buffers,
                        std::size_t bytes);
  /// Receiver-side: join the message clock into the receiver and grant the
  /// receiver ownership of every carried buffer.
  void on_recv(int rank, std::uint64_t msg_id);

  // -- Payload / tracker events (via the schedhook bridge) -----------------

  void on_event(int rank, schedhook::Event event, const void* object,
                long value);

  // -- Deadlock annotation -------------------------------------------------

  /// One clause about a pending wait: was a matching message never sent, or
  /// already sent and consumed by an earlier receive (lost wakeup)?
  std::string describe_wait(std::uint64_t context, int src_world,
                            int dest_world, int tag) const;

  const std::vector<SchedFinding>& findings() const { return findings_; }

 private:
  struct BufferState {
    long live = 0;
    /// Ranks allowed to touch the buffer: the creator plus every rank that
    /// received it through a message. Foreign buffers (first seen outside a
    /// rank thread, e.g. created on the launcher thread) skip the
    /// ownership check.
    std::set<int> owners;
    bool foreign = false;
    bool transported = false;
    /// Join of every release event's clock — what an acquire-ordered
    /// sole-owner observation synchronizes with.
    VectorClock release_clock;
    bool has_release = false;
    /// Last event clock per rank that ever touched the buffer.
    std::map<int, VectorClock> last_event;
    /// Set when the allocation was reclaimed for mutation (steal/mutate).
    bool reclaimed = false;
    VectorClock reclaim_clock;
    int reclaimer = -1;
  };

  struct MessageRecord {
    VectorClock clock;
    std::vector<const void*> buffers;
    std::uint64_t context = 0;
    int dest_world = -1;
    int src_world = -1;
    int tag = 0;
  };

  /// Per (context, dest, tag) pending user-tag sends, for the racing-send
  /// check; entries leave on receive.
  struct PendingSend {
    int src_world;
    std::uint64_t msg_id;
    VectorClock clock;
  };

  /// Sent/consumed counters per exact wait triple, for lost-wakeup
  /// classification in deadlock reports.
  struct TripleStats {
    std::uint64_t sent = 0;
    std::uint64_t consumed = 0;
  };

  void bump(int rank);
  BufferState& buffer_state(int rank, const void* buffer, bool creating);
  void add_finding(const std::string& kind, int rank,
                   const std::string& detail);

  int size_;
  std::vector<VectorClock> clocks_;
  std::map<const void*, BufferState> buffers_;
  std::map<std::uint64_t, MessageRecord> messages_;
  std::uint64_t next_msg_id_ = 1;
  std::map<std::tuple<std::uint64_t, int, int>, std::vector<PendingSend>>
      pending_user_sends_;
  std::map<std::tuple<std::uint64_t, int, int, int>, TripleStats> triples_;
  std::vector<SchedFinding> findings_;
  std::set<std::string> finding_keys_;  ///< dedupe (kind + detail core)
};

}  // namespace hb
}  // namespace casp::vmpi

#endif  // CASP_VMPI_SCHED
