// RunReport: the machine-readable aggregation of a virtual job's recorders.
//
// build_report folds the per-rank Recorders of a vmpi::RunResult into one
// document: per-phase message/byte totals and per-rank maxima (identical to
// TrafficStats' Table II accounting — the report is a *view* of the same
// ledger, never a re-count), per-phase rank×rank traffic matrices, step
// timings, named counters, and memory high-water marks. Serialized as JSON
// ("casp.run_report.v1"); the deterministic subset (counts, matrices,
// counters — no timings) is byte-identical across repeated runs of the same
// program, which is what the golden tests compare.
//
// chrome_trace_string renders all ranks' timeline spans as a Chrome
// trace-event document (one tid per rank) loadable in chrome://tracing or
// Perfetto. Span events are emitted per rank in recording order; RAII
// spans guarantee paired B/E events and nondecreasing timestamps per tid.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/json.hpp"
#include "vmpi/runtime.hpp"

namespace casp::obs {

/// Aggregated per-phase entry: traffic is summed/maxed over ranks, timing
/// over the ranks' accumulators for the same name (phase names and span
/// names coincide for communication steps via PhaseSpan).
struct PhaseEntry {
  vmpi::PhaseTraffic total;  ///< sum over ranks (Table II totals)
  vmpi::PhaseTraffic max;    ///< max over ranks (critical path)
  double seconds_sum = 0.0;
  double seconds_max = 0.0;
};

/// Dense rank×rank matrix for one phase, row-major: entry (src, dst) is the
/// traffic rank `src` sent to rank `dst`. Row sums reproduce the per-rank
/// phase totals exactly (charged by the same record_send call).
struct TrafficMatrix {
  int ranks = 0;
  std::vector<std::uint64_t> messages;
  std::vector<std::uint64_t> bytes;    ///< logical (Table II) bytes
  std::vector<std::uint64_t> shipped;  ///< wire bytes; == bytes unless the
                                       ///< sparse exchange elided some

  std::uint64_t& msg_at(int src, int dst) {
    return messages[static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(ranks) +
                    static_cast<std::size_t>(dst)];
  }
  std::uint64_t& bytes_at(int src, int dst) {
    return bytes[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(ranks) +
                 static_cast<std::size_t>(dst)];
  }
  std::uint64_t& shipped_at(int src, int dst) {
    return shipped[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(ranks) +
                   static_cast<std::size_t>(dst)];
  }
};

/// Recovery history of a supervised run (vmpi::run_supervised): how many
/// relaunches happened, what killed each failed attempt, which checkpoint
/// generation the job fast-forwarded from, and the wall-clock cost of the
/// failed attempts. Serialized under the "recovery" key in to_json() only —
/// wasted_seconds is timing and the failure kinds carry free text, so the
/// deterministic subset excludes it.
struct RecoveryReport {
  int restarts = 0;
  int max_restarts = 0;
  std::vector<std::string> failure_kinds;  ///< one per relaunched attempt
  /// Max over ranks of the checkpoint generation resumed on the final
  /// attempt; -1 when the job restarted cold (no valid snapshot).
  std::int64_t resumed_generation = -1;
  double wasted_seconds = 0.0;
  /// Microseconds *measured* asleep before each relaunch (wall clock, so
  /// to_json() only). One entry per restart, zero when backoff is disabled.
  std::vector<std::int64_t> backoff_us;
  /// The *planned* sleep per relaunch: the deterministic bounded-exponential
  /// ladder min(base << k, cap) per SupervisorOptions::restart_backoff_*.
  /// Same length as backoff_us; this half of the backoff evidence is a pure
  /// function of the attempt index, so it belongs to the deterministic
  /// subset (JobReport::deterministic_json).
  std::vector<std::int64_t> backoff_plan_us;
  /// Degraded-grid recovery (svc elastic jobs): the grid shape before the
  /// first shrink and after the last, plus the pool ranks declared
  /// permanently dead. degraded_to_ranks == 0 <=> the job never shrank.
  int degraded_from_ranks = 0;
  int degraded_from_layers = 0;
  int degraded_to_ranks = 0;
  int degraded_to_layers = 0;
  std::vector<int> dead_ranks;
  /// Grid regrowth (svc elastic jobs with membership enabled): the shape the
  /// job was paused at and the larger shape it resumed on after probationary
  /// ranks rejoined. regrown_to_ranks == 0 <=> the job never regrew.
  int regrown_from_ranks = 0;
  int regrown_from_layers = 0;
  int regrown_to_ranks = 0;
  int regrown_to_layers = 0;
  /// Pool ranks that passed probation and were folded back into this job's
  /// grid at the regrow boundary.
  std::vector<int> rejoined_ranks;
};

struct RunReport {
  int ranks = 0;
  double wall_seconds = 0.0;
  std::map<std::string, PhaseEntry> phases;
  std::map<std::string, TrafficMatrix> matrices;
  /// Merged named counters. A name containing "_max" is a per-rank maximum
  /// (summa.layer_flops_max*, summa.fiber_nnz_max*) and merges by max over
  /// the ranks; any other name keeps rank 0's value (SPMD counters are
  /// identical across ranks anyway).
  std::map<std::string, std::int64_t> counters;
  std::vector<Bytes> peak_bytes_per_rank;
  Bytes peak_bytes_max = 0;
  /// Present when the job failed and vmpi::run captured the failure
  /// (RunOptions::capture_failure). Serialized in to_json() only — failures
  /// carry free-text and are not part of the deterministic subset.
  std::optional<vmpi::FailureReport> failure;
  /// Present when the job ran under vmpi::run_supervised (see
  /// build_report(SupervisedResult)). to_json() only, like `failure`.
  std::optional<RecoveryReport> recovery;

  /// Full document, including timings and memory.
  Json to_json() const;
  /// Only the run-deterministic fields (phase counts, matrices, counters);
  /// two runs of the same program serialize byte-identically.
  Json deterministic_json() const;
};

RunReport build_report(const vmpi::RunResult& result);

/// Report for a supervised run: the final attempt's report plus a
/// RecoveryReport under `recovery` (restart count, per-attempt failure
/// kinds, the resumed checkpoint generation read from the ranks'
/// `ckpt.resumed_generation` counters, wasted seconds).
RunReport build_report(const vmpi::SupervisedResult& supervised);

/// Pretty-printed report JSON to `path`; throws std::runtime_error on I/O
/// failure.
void write_report_json(const RunReport& report, const std::string& path);

/// Chrome trace-event JSON ({"traceEvents": [...]}, ts in microseconds,
/// pid 0, tid = rank) of every rank's spans, counter samples, and
/// thread-name metadata.
std::string chrome_trace_string(const vmpi::RunResult& result);
void write_chrome_trace(const vmpi::RunResult& result,
                        const std::string& path);

}  // namespace casp::obs
