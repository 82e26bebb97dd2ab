// Virtual job launcher: runs an SPMD function on p thread-backed ranks.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "obs/recorder.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/faults.hpp"
#include "vmpi/sched.hpp"
#include "vmpi/traffic.hpp"

namespace casp::vmpi {

/// The job ran past RunOptions::deadline_ms: the watchdog raised this on
/// the slowest rank's behalf and woke everyone else with Aborted. Classified
/// as "deadline_exceeded" (non-recoverable — the budget is spent).
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// Structured classification of why a virtual job died: which rank failed
/// first, which traffic phase it was in, and what kind of fault killed it.
/// Built by vmpi::run for every failed job and either attached to the
/// RunResult (RunOptions::capture_failure) or implied by the rethrown
/// exception; the run report embeds it so `--report` JSON names the
/// failure instead of a bare abort.
struct FailureReport {
  /// Machine-readable class: "rank_crash", "permanent_crash",
  /// "retry_exhausted", "deadline_exceeded", "deadlock",
  /// "communicator_order_violation", "collective_mismatch", "message_leak",
  /// "memory_budget", "input_error", "invalid_argument",
  /// "schedule_violation" (casp-verify happens-before findings), or
  /// "exception". Every kind must appear in runtime.cpp's kKindTable
  /// (casp_lint: failure-kind-classified).
  std::string kind;
  /// First failing world rank; -1 for job-level failures (watchdog
  /// deadlock verdicts have no single culprit rank).
  int rank = -1;
  /// Traffic phase the failing rank was in (e.g. "A-Bcast"); empty for
  /// job-level failures.
  std::string phase;
  /// The underlying exception message.
  std::string what;

  /// One-line human-readable rendering (kind/rank/phase/what).
  std::string describe() const;
};

/// Launch-time knobs for a virtual job.
struct RunOptions {
  /// Fault-injection plan. Unset = parse CASP_VMPI_FAULTS from the
  /// environment (a disabled plan when that is unset too).
  std::optional<FaultPlan> faults;
  /// When true, an unrecoverable job error is returned as
  /// RunResult::failure (with every rank's recorders intact) instead of
  /// rethrown — the CLI/report path. When false (default), the first
  /// exception is rethrown as before, so callers' catch sites keep
  /// working.
  bool capture_failure = false;
  /// Wall-clock deadline for the whole job in milliseconds; 0 = none.
  /// Enforced cooperatively by the watchdog thread: past the deadline every
  /// rank is woken with vmpi::Aborted and the job classifies as
  /// "deadline_exceeded" (non-recoverable — more attempts cannot make the
  /// same budget fit). Under the deterministic scheduler (CASP_VMPI_SCHED
  /// plan active) the watchdog is off and the deadline is enforced against
  /// the scheduler's VIRTUAL clock instead — every scheduling decision
  /// advances virtual time by a fixed quantum, so deadline-expiry
  /// interleavings replay exactly (see Scheduler::arm_virtual_deadline).
  std::int64_t deadline_ms = 0;
#ifdef CASP_VMPI_SCHED
  /// casp-verify schedule plan. Unset = parse the CASP_VMPI_SCHED
  /// environment variable ("seed=<n>" or "replay=<schedule>"; absent means
  /// an ordinary free-running job). A disabled plan also runs free.
  std::optional<SchedPlan> sched;
#endif
};

/// Everything a finished virtual job reports back.
struct RunResult {
  int size = 0;
  /// Wall time of the whole job (launch to last join), seconds.
  double wall_seconds = 0.0;
  /// Per-rank observability recorders (timeline events, traffic ledger,
  /// timings, counters, memory high-water), indexed by rank.
  std::vector<obs::Recorder> recorders;

  /// Set iff the job failed and RunOptions::capture_failure was true.
  std::optional<FailureReport> failure;
  bool failed() const { return failure.has_value(); }

#ifdef CASP_VMPI_SCHED
  /// Set iff the job ran under a casp-verify schedule plan: the replayable
  /// schedule string, the full decision trace (for systematic exploration)
  /// and the happens-before findings. Findings also surface as a
  /// "schedule_violation" failure unless an earlier error won.
  std::optional<SchedSummary> sched;
#endif

  TrafficSummary traffic_summary() const;
  /// Max over ranks of a named timer (the critical-path step time).
  double max_time(const std::string& name) const;
  /// All timer names seen on any rank.
  std::vector<std::string> time_names() const;
};

/// Run `body` on `size` ranks. Blocks until all ranks return. If any rank
/// throws, all blocked ranks are woken with vmpi::Aborted and — unless
/// options.capture_failure asks for a structured FailureReport instead —
/// the first exception is rethrown here.
RunResult run(int size, const std::function<void(Comm&)>& body,
              const RunOptions& options);
RunResult run(int size, const std::function<void(Comm&)>& body);

/// True iff the failure is one a relaunch can survive: the fault is
/// external to the program logic — a crashed rank ("rank_crash"), a link
/// that swallowed every retry ("retry_exhausted"), or the deadlock a
/// crashed peer leaves behind ("deadlock") — rather than a deterministic
/// bug (collective mismatch, bad input, budget exhaustion on all ranks)
/// that would recur identically on every attempt.
bool recoverable_failure(const FailureReport& report);

/// Knobs for the supervised restart loop.
struct SupervisorOptions {
  /// Fault plan for the first attempt. Unset = CASP_VMPI_FAULTS.
  std::optional<FaultPlan> faults;
  /// Upper bound on relaunches (not counting the first attempt).
  int max_restarts = 3;
  /// Capped exponential backoff between relaunches, mirroring the
  /// transport's retry_base_us/retry_cap_us: attempt k sleeps
  /// min(restart_backoff_base_us << k, restart_backoff_cap_us) before
  /// relaunching. 0 disables the wait (tests that sweep many restarts).
  std::int64_t restart_backoff_base_us = 1000;
  std::int64_t restart_backoff_cap_us = 100000;
  /// Deadline for the whole supervised chain (all attempts plus backoff
  /// waits), milliseconds; 0 = none. Each attempt runs under the remaining
  /// budget, and a chain that exhausts it classifies "deadline_exceeded".
  std::int64_t deadline_ms = 0;
};

/// Outcome of run_supervised: the final attempt's RunResult plus the
/// recovery history. The job body is responsible for fast-forwarding from
/// its newest checkpoint generation (see ckpt::Checkpointer) — the
/// supervisor only relaunches and disarms fired faults.
struct SupervisedResult {
  RunResult result;  ///< final attempt (successful or the one that gave up)
  int restarts = 0;  ///< relaunches actually performed
  int max_restarts = 0;  ///< the bound the supervisor ran under
  /// FailureReports of the attempts that were relaunched, in order.
  std::vector<FailureReport> recovered_failures;
  /// Wall-clock seconds burned by failed attempts (recovery overhead).
  double wasted_seconds = 0.0;
  /// Wall-clock microseconds MEASURED sleeping before each relaunch, in
  /// order (one entry per restart; surfaced in the report's "recovery"
  /// section). Timing-dependent — never part of deterministic evidence.
  std::vector<std::int64_t> backoff_us;
  /// The deterministic backoff *schedule*: the computed ladder value
  /// min(base << k, cap) each restart was asked to wait, independent of how
  /// long the sleep actually took. One entry per restart (0 when backoff is
  /// disabled). This is the half of the backoff evidence stable enough for
  /// JobReport::deterministic_json.
  std::vector<std::int64_t> backoff_plan_us;

  bool recovered() const { return restarts > 0 && !result.failed(); }
};

/// One supervised restart chain, stepped an attempt at a time: the restart
/// policy behind run_supervised and the job service's per-job
/// supervision on its RankPool. The caller launches each attempt with
/// attempt_options() and hands its RunResult to absorb().
class SupervisionChain {
 public:
  explicit SupervisionChain(const SupervisorOptions& options);

  /// Launch options for the next attempt: the live fault plan (faults that
  /// already fired are disarmed), capture_failure, and what is left of the
  /// chain deadline — never below 1 ms, so a spent budget still gets one
  /// fast-failing probe that classifies as deadline_exceeded.
  RunOptions attempt_options() const;

  /// Take one attempt's result. Returns true to relaunch: the failure was
  /// recoverable within the restart budget, the fault that fired is
  /// disarmed, and the backoff ladder's wait has been slept. Returns false
  /// once the chain is over; result() then holds the final attempt.
  bool absorb(RunResult attempt);

  SupervisedResult& result() { return sup_; }

 private:
  SupervisorOptions options_;
  FaultPlan plan_;
  SupervisedResult sup_;
  Stopwatch clock_;  ///< whole-chain clock: attempts + backoff waits
};

/// Run `body` under a supervisor: each attempt runs with capture_failure;
/// when the captured FailureReport is recoverable_failure() and the restart
/// budget allows, the already-fired fault is disarmed from the plan
/// (FaultPlan::disarmed) and the job relaunches — bodies that checkpoint
/// resume from their newest valid generation instead of recomputing.
/// Unrecoverable failures and budget exhaustion return the failed attempt
/// as-is (RunResult::failure set, never rethrown).
SupervisedResult run_supervised(int size,
                                const std::function<void(Comm&)>& body,
                                const SupervisorOptions& options);
SupervisedResult run_supervised(int size,
                                const std::function<void(Comm&)>& body);

}  // namespace casp::vmpi
