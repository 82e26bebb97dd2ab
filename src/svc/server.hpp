// The multi-tenant job service: a JobQueue of JobSpecs executed on one
// resident vmpi::RankPool, with admission control, per-tenant quotas, and
// per-job reports.
//
// Lifecycle of a submitted job:
//
//   submit ── validate ── materialize inputs ── Eq. (2) admission estimate
//     ├─ estimate says the declared budget cannot hold the inputs → REJECTED
//     ├─ reservation exceeds the tenant's memory quota outright   → REJECTED
//     ├─ tenant's traffic quota already exhausted                 → THROTTLED
//     └─ else: reserve memory (or queue unreserved and retry) and QUEUE
//   schedule (priority order, FIFO within priority; re-checks throttling)
//   execute on the resident pool (supervised when the spec asks for it;
//     one tenant's injected crash is scoped to its own job — the pool
//     survives and the next job runs on the same resident threads)
//     ├─ permanent_crash: the rank is marked dead in the pool's health map.
//     │  Elastic jobs re-run Eq. (2) admission for the largest survivor
//     │  grid, redistribute their checkpoints onto it
//     │  (ckpt/redistribute.hpp) and finish there — bit-identically;
//     │  non-elastic jobs fail with the classified reason.
//     └─ deadline_exceeded: the watchdog cancelled the job at its
//        JobSpec::deadline_ms budget; the reservation is released and the
//        next job runs immediately.
//   DONE / FAILED ── bill traffic ── release reservation
//
// Scheduling is deadline-aware EDF over priority (see svc/queue.hpp) and
// runs on one drain loop: up to K = ServerOptions::concurrency jobs in
// flight, each on its own DISJOINT pool split, collected oldest-first.
// drain() runs the loop at K; wait() runs it at K = 1, which is strictly
// one job at a time. Every scheduling decision happens on the caller's
// thread from launcher-deterministic state (queue order, health map, the
// launcher's own busy-set — never a racy "is that thread done yet" probe),
// so two drains of the same submission sequence schedule identically — the
// property the soak and double-drain checks compare. Health is per split: a
// permanent crash marks only ranks of the owning job's split dead, and that
// job shrinks onto its own survivors while its neighbours run untouched.
// Shrink and regrow are one transition (reshape): re-run Eq. (2) admission
// for the new grid, then redistribute the checkpoints onto it. Supervised
// jobs restart through vmpi::SupervisionChain, the same restart policy as
// vmpi::run_supervised.
//
// With ServerOptions::auto_rejoin, membership self-heals (DESIGN.md §5k):
// a crashed rank's replacement enters probation immediately, elastic
// SpGEMM jobs that shrank pause at a batch boundary so the probationers
// can handshake back in, and the next round regrows the grid — re-running
// Eq. (2) admission for the larger shape and redistributing checkpoints
// onto it — recording regrown_from/to evidence in the recovery report.
//
// std::thread ownership stays inside src/vmpi (the repo's threading lint
// boundary); the server only launches and collects pool tickets.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/mcl.hpp"
#include "ckpt/redistribute.hpp"
#include "obs/job_report.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/symbolic3d.hpp"
#include "svc/jobspec.hpp"
#include "svc/queue.hpp"
#include "svc/quota.hpp"
#include "vmpi/pool.hpp"

namespace casp::svc {

/// Lifecycle states. Terminal: everything except kQueued/kRunning.
enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,     ///< executed, ended with a FailureReport
  kRejected,   ///< refused at submit (admission or quota), never ran
  kCancelled,  ///< removed from the queue before running
  kThrottled,  ///< tenant's traffic quota exhausted; never ran
};

const char* to_string(JobState s);

inline bool is_terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// Everything the server knows about one submitted job.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::kQueued;
  /// Structured reason for rejected/cancelled/throttled/failed states.
  std::string reason;
  obs::JobAdmission admission;
  /// Reservation charged to the tenant while queued/running (0 after a
  /// terminal state releases it).
  Bytes reserved_bytes = 0;
  bool holds_reservation = false;

  /// Operands materialized at submit (admission needs them; execution
  /// reuses them so the estimate and the run see identical inputs). A
  /// triangle job holds L and U (apps/triangle.hpp), the product it runs.
  CscMat in_a;
  CscMat in_b;
  /// Admission's Symbolic3D result of every rank, for the grid
  /// symbolic_grid = (ranks, layers). An attempt on that grid lends rank
  /// r's to batched_summa3d, which then skips its own pass; reshape
  /// replaces them for the new grid. Released once the job is terminal.
  std::vector<SymbolicResult> symbolic;
  std::pair<int, int> symbolic_grid{0, 0};

  // Outputs (valid in state kDone, per op):
  CscMat c;                  ///< kSpGemm: the gathered product
  Index batches = 1;         ///< kSpGemm: Eq. (2) batch count used
  Index final_batches = 1;   ///< kSpGemm: after adaptive re-batching
  MclResult mcl;             ///< kMcl
  Index triangles = 0;       ///< kTriangleCount

  /// Per-job "casp.job_report.v1" document; complete once terminal.
  obs::JobReport report;

  /// Raw run telemetry (timers, traffic, fault events) for jobs that
  /// executed; lets clients write Chrome traces without re-running.
  vmpi::RunResult run_result;

  bool terminal() const { return is_terminal(state); }
};

struct ServerOptions {
  /// Resident pool width. Jobs may use fewer ranks (the pool splits);
  /// a spec asking for more is rejected at submit.
  int pool_ranks = 4;
  /// Per-tenant limits; tenants not listed run unlimited.
  std::map<std::string, TenantQuota> quotas;
  /// Max jobs in flight on disjoint pool splits during drain(). 1 runs the
  /// same drain loop one job at a time. Clamped to 1 while a
  /// CASP_VMPI_SCHED plan is active (one deterministic-scheduler state
  /// exists per process).
  int concurrency = 1;
  /// Self-healing membership: a permanent crash's rank automatically
  /// requests re-join (kDead -> kProbation), shrunk elastic SpGEMM jobs
  /// pause at a batch boundary to handshake probationers back in, and the
  /// grid regrows onto the admitted ranks.
  bool auto_rejoin = false;
  /// Probation handshake knobs used by the regrow path.
  vmpi::MembershipOptions membership;
};

/// In-process service front end. Not thread-safe: one client drives it.
class Server {
 public:
  explicit Server(ServerOptions options);

  /// Admit and queue a job; returns its id (assigned "job-<n>" when the
  /// spec left job_id empty). Structural errors (bad spec, unreadable
  /// input, duplicate id, ranks > pool) throw InvalidArgument; policy
  /// refusals (admission, quota) come back as a terminal kRejected /
  /// kThrottled record, never as an exception.
  std::string submit(JobSpec spec);

  /// Remove a queued job before it runs. False when the job is already
  /// running, terminal, or unknown.
  bool cancel(const std::string& job_id);

  /// Drive the queue one job at a time until `job_id` reaches a terminal
  /// state; returns its record. Jobs queued behind it stay queued. Throws
  /// InvalidArgument for an unknown id.
  const JobRecord& wait(const std::string& job_id);

  /// Drive the queue until empty.
  void drain();

  const JobRecord* find(const std::string& job_id) const;
  /// Ids in submission order (includes terminal jobs).
  const std::vector<std::string>& job_ids() const { return order_; }

  TenantLedger& tenant(const std::string& name);
  /// "casp.tenant_report.v1" for one tenant.
  obs::Json tenant_report(const std::string& name);
  /// All per-job reports (submission order) as a JSON array.
  obs::Json job_reports_json(bool deterministic) const;

  vmpi::RankPool& pool() { return pool_; }

 private:
  /// Per-job execution state: the grid the next round runs on, the
  /// redistributed-resume cache, the cumulative bill/recovery evidence, and
  /// the in-flight attempt's ticket + supervision chain. Defined in
  /// server.cpp; every job runs through one on the drain loop, K = 1
  /// included.
  struct Exec;
  enum class RoundStart {
    kStarted,     ///< attempt dispatched (Exec::ticket set)
    kTerminal,    ///< the job reached a terminal state at the round top
    kNoCapacity,  ///< enough ranks alive, but busy on other splits — retry
  };

  /// The drain loop: up to `width` jobs in flight on disjoint splits.
  /// Returns when the queue is empty and nothing runs, or — when `until`
  /// is set — once `until` is terminal and nothing is active or parked.
  void run_queue(int width, const JobRecord* until);
  /// Top-of-round grid decision (shrink / regrow / fail) + dispatch.
  RoundStart begin_round(Exec& e);
  /// Move the job onto a ranks x layers grid: re-run Eq. (2) admission for
  /// that shape (its Symbolic3D results replace the record's) and
  /// redistribute the job's checkpoints onto it. False (with
  /// the estimate's reason in *why) when the shape cannot hold the job;
  /// the grid is then unchanged.
  bool reshape(Exec& e, int ranks, int layers, std::string* why);
  /// A shrunk elastic, checkpointed SpGEMM job under auto_rejoin: the jobs
  /// that may pause for probationers and regrow onto them.
  bool may_regrow(const Exec& e) const;
  /// Dispatch one attempt of the current round as an async pool ticket.
  void start_attempt(Exec& e);
  /// Collect the in-flight ticket and advance: relaunch the supervision
  /// chain, start the next round, or finish the job. Leaves Exec::ticket
  /// null exactly when the job is terminal or waiting for capacity.
  void complete_attempt(Exec& e);
  /// Seal an executed job: the recovery evidence, the cumulative bill and
  /// the final attempt's telemetry go into the record, then finish().
  void finish_run(Exec& e, vmpi::RunResult&& res, JobState state,
                  std::string reason);
  /// Finish `rec` as kThrottled when its tenant's traffic quota is spent.
  bool throttle_if_exhausted(JobRecord& rec);
  int effective_concurrency() const;
  /// One attempt's rank-local body. The Exec's grid shape overrides the
  /// spec's, its resume cache injects redistributed checkpoint state on
  /// degraded relaunches (null on the normal path), and its pause fields
  /// park the attempt at a batch boundary.
  void run_body(Exec& e, vmpi::Comm& world);
  void finish(JobRecord& rec, JobState state, std::string reason);
  void release_reservation(JobRecord& rec);

  ServerOptions options_;
  vmpi::RankPool pool_;
  JobQueue queue_;
  std::map<std::string, std::unique_ptr<JobRecord>> jobs_;
  std::vector<std::string> order_;
  std::map<std::string, TenantLedger> tenants_;
  std::uint64_t next_job_ = 0;
  /// Pool ranks held by a dispatched-but-uncollected attempt. Kept by the
  /// launcher (not read back from slot state) so capacity decisions depend
  /// only on launcher-visible history, never on how far a worker thread
  /// happens to have gotten — the determinism invariant of the drain.
  std::vector<char> busy_;
};

}  // namespace casp::svc
