// Internal: the per-job execution core shared by vmpi::run (fresh threads
// per job) and vmpi::RankPool (resident threads across jobs). Not part of
// the public vmpi surface — include runtime.hpp or pool.hpp instead.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/timer.hpp"
#include "vmpi/runtime.hpp"

namespace casp::vmpi::detail {

/// One virtual job in flight: the world (mailboxes, fault state, sched
/// state), the first-error capture, the deadlock watchdog, and the
/// finalization path (sched summary, failure classification or rethrow,
/// CASP_VMPI_CHECK leak sweeps). The launcher owns thread placement: it
/// calls rank_main(r, body) once per rank from whatever thread backs that
/// rank, brackets the job with start_watchdog()/stop_watchdog(), and calls
/// finalize() exactly once after every rank_main returned.
class JobExec {
 public:
  JobExec(int size, const RunOptions& options);

  /// Per-rank SPMD main: constructs the Comm, binds the casp-verify
  /// scheduler token if one is active, runs the body with abort/error
  /// capture, and publishes the rank's recorder/traffic/times into the
  /// result. Safe to call concurrently for distinct ranks.
  void rank_main(int r, const std::function<void(Comm&)>& body);

  /// Start the sampling deadlock watchdog (no-op under a scheduler plan or
  /// CASP_VMPI_WATCHDOG_MS=0). Call after the rank threads are dispatched.
  void start_watchdog();
  /// Stop and join the watchdog. Call after every rank_main returned.
  void stop_watchdog();

  /// Collect the job outcome: stamp wall time, fold in the sched summary,
  /// then either classify the first error into RunResult::failure
  /// (capture_failure) or rethrow it; clean CASP_VMPI_CHECK jobs also run
  /// the stranded-collective and user-tag leak sweeps.
  RunResult finalize(bool capture_failure);

 private:
  int size_;
  std::shared_ptr<World> world_;
  RunResult result_;
  Stopwatch watch_;
  std::int64_t deadline_ms_ = 0;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  int failed_rank_ = -1;
  std::string failed_phase_;

  std::mutex wd_mutex_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  std::thread watchdog_;
};

}  // namespace casp::vmpi::detail
