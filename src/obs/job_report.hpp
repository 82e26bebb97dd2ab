// JobReport: the per-job billing / SLO record of the multi-tenant service.
//
// One document per submitted job ("casp.job_report.v1"): who submitted it,
// what the admission controller decided from the Eq. (2) symbolic estimate,
// how the job ended, and what traffic the tenant is billed for — the
// logical (Table II) and shipped byte totals of the executed run, folded
// from the same per-rank TrafficStats ledgers the RunReport views. Executed
// jobs embed their full RunReport; rejected / cancelled / throttled jobs
// carry the structured reason instead. The deterministic subset
// (deterministic_json) excludes timings and free-text messages, so two runs
// of the same job queue serialize byte-identically — the property the
// check.sh stage (i) soak compares.
#pragma once

#include <optional>
#include <string>

#include "common/types.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace casp::obs {

/// The admission controller's Eq. (2) numbers for one job (Alg. 3 line 12:
/// b = r * maxnnzC / (M/p - r * (maxnnzA + maxnnzB))). Recorded whether
/// the job was admitted or rejected, so a rejection names its evidence.
struct JobAdmission {
  bool fits = false;
  Index batches = 1;       ///< Eq. (2) batch count (1 when unconstrained)
  Index max_nnz_a = 0;     ///< max over processes, symbolic pass
  Index max_nnz_b = 0;
  Index max_nnz_c = 0;     ///< max per-process unmerged output nnz
  Bytes per_process_share = 0;  ///< M/p for the job's declared budget
  Bytes input_bytes = 0;        ///< r * (maxnnzA + maxnnzB)
  Bytes reserved_bytes = 0;     ///< what the tenant's memory quota was charged
};

/// Tenant-visible billing of one executed attempt chain: traffic totals
/// summed over ranks and phases from the final attempt's ledgers, plus the
/// supervision history (restart count and per-attempt failure kinds).
struct JobBilling {
  std::uint64_t messages = 0;
  Bytes logical_bytes = 0;  ///< Table II accounting (bytes column)
  Bytes shipped_bytes = 0;  ///< wire truth (<= logical with sparse_comm)
  int restarts = 0;
  std::vector<std::string> recovered_failure_kinds;
};

struct JobReport {
  std::string job_id;
  std::string tenant;
  std::string op;        ///< "spgemm" | "mcl" | "triangle"
  int priority = 0;
  std::string state;     ///< terminal JobState name ("done", "rejected", ...)
  std::string reason;    ///< structured reason for rejected/cancelled/throttled
  JobAdmission admission;
  JobBilling billing;
  /// Present iff the job executed (successfully or not).
  std::optional<RunReport> run;

  /// Full document, including the embedded RunReport with timings.
  Json to_json() const;
  /// Run-deterministic subset: identity, admission, state, billing counts
  /// and the RunReport's deterministic subset. Free-text failure messages
  /// and the `reason` string are included only when they are themselves
  /// deterministic (reasons are built from admission numbers, not timings).
  /// Failed jobs drop their billing and run sub-reports entirely and
  /// collapse `reason` to the closed-set failure kind: a torn-down
  /// attempt's traffic — and which rank's describe() latched first — depend
  /// on how far each rank got before teardown, which is
  /// thread-schedule-dependent. Done jobs that restarted, resumed from
  /// checkpoints, ran degraded, or lost a rank to a permanent crash (and
  /// re-ran, possibly at full width on spare ranks) likewise drop billing
  /// and run: the surviving traffic depends on where the fault landed
  /// relative to the checkpoints, and the bill holds the failed attempt's. The outcome itself stays — done + admission plus a
  /// `recovery` stub with the fault-plan-determined facts (restart count,
  /// shrink shape) but none of the schedule-dependent costs.
  Json deterministic_json() const;
};

/// Fold the billing totals out of a finished run's per-rank ledgers.
JobBilling bill_traffic(const vmpi::RunResult& result);

}  // namespace casp::obs
