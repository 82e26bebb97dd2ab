// Collective-correctness checking for the virtual runtime — the MUST-style
// analog for vmpi.
//
// Real-MPI correctness tools (MUST, Marmot, Intel ITAC) intercept PMPI to
// verify that every rank of a communicator executes the same sequence of
// collectives with compatible arguments. Our runtime is not MPI, so it gets
// the equivalent built in: when compiled with CASP_VMPI_CHECK, every
// collective entry stamps an (op, sequence-number, root, payload-length)
// fingerprint into the existing message headers. A receiver that is inside
// a collective and matches a message carrying a different fingerprint
// aborts the whole virtual job with a per-rank diagnostic instead of
// deadlocking or silently corrupting data. Mis-orderings that manifest as
// a stall instead of a mismatched message are caught by the deadlock
// watchdog in vmpi::run, which dumps every rank's pending wait and recent
// collective history.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace casp::vmpi {

/// Which collective a rank is currently executing. kNone marks plain
/// point-to-point traffic, which the checker never second-guesses.
enum class CollectiveOp : std::uint8_t {
  kNone = 0,
  kBarrier,
  kBcast,
  kReduce,
  kAllgather,
  kAlltoall,
  kSplit,
  kSparseExchange,
  kGather,
};

const char* collective_op_name(CollectiveOp op);

/// Fingerprint of one collective call site, stamped into every message the
/// call sends. `seq` counts collective entries per communicator (nested
/// collectives — e.g. the broadcast inside allreduce — count too, so the
/// sequence is identical on every rank of a correct program). `payload` is
/// the byte length the caller contributed; it is compared across ranks only
/// for ops whose contract requires equal lengths (allreduce).
struct CollectiveStamp {
  CollectiveOp op = CollectiveOp::kNone;
  std::uint64_t seq = 0;
  std::int32_t root = -1;
  std::uint64_t payload = 0;
};

/// "bcast #3 (root 2)" / "allreduce #7 (16 bytes)" — for diagnostics.
std::string describe_stamp(const CollectiveStamp& stamp);

/// Thrown (and propagated out of vmpi::run) when two ranks of one
/// communicator disagree on which collective is executing: mismatched op
/// order, mismatched roots, cross-rank payload divergence, or collective
/// traffic left unconsumed at job end.
class CollectiveMismatch : public std::logic_error {
 public:
  explicit CollectiveMismatch(const std::string& what);
};

/// Thrown out of vmpi::run when the watchdog finds every live rank blocked
/// with no deliverable message — the virtual job can never make progress.
class DeadlockDetected : public std::runtime_error {
 public:
  explicit DeadlockDetected(const std::string& what);
};

/// Thrown out of vmpi::run when user-tag (tag >= 0) point-to-point messages
/// are still unconsumed at job end and the sender did not mark them
/// fire-and-forget — a send whose matching receive never ran.
class MessageLeak : public std::logic_error {
 public:
  explicit MessageLeak(const std::string& what);
};

/// Thrown out of vmpi::run when the watchdog finds the stall is not a
/// generic deadlock but a communicator-lifetime bug: some ranks are blocked
/// in a collective on a parent communicator while others are blocked in a
/// collective on one of its split children — i.e. the ranks interleaved
/// parent and child collectives in divergent program orders. A logic error
/// (the program is wrong, not the environment), diagnosed by name instead
/// of the raw deadlock dump.
class CommunicatorOrderViolation : public std::logic_error {
 public:
  explicit CommunicatorOrderViolation(const std::string& what);
};

}  // namespace casp::vmpi
