#include "obs/job_report.hpp"

namespace casp::obs {

namespace {
constexpr const char* kJobSchema = "casp.job_report.v1";

Json admission_json(const JobAdmission& a) {
  Json j = Json::object();
  j.set("fits", a.fits);
  j.set("batches", static_cast<std::int64_t>(a.batches));
  j.set("max_nnz_a", static_cast<std::int64_t>(a.max_nnz_a));
  j.set("max_nnz_b", static_cast<std::int64_t>(a.max_nnz_b));
  j.set("max_nnz_c", static_cast<std::int64_t>(a.max_nnz_c));
  j.set("per_process_share", a.per_process_share);
  j.set("input_bytes", a.input_bytes);
  j.set("reserved_bytes", a.reserved_bytes);
  return j;
}

Json billing_json(const JobBilling& b) {
  Json j = Json::object();
  j.set("messages", b.messages);
  j.set("logical_bytes", b.logical_bytes);
  j.set("shipped_bytes", b.shipped_bytes);
  j.set("restarts", b.restarts);
  Json kinds = Json::array();
  for (const std::string& k : b.recovered_failure_kinds) kinds.push_back(k);
  j.set("recovered_failure_kinds", std::move(kinds));
  return j;
}

Json header_json(const JobReport& r) {
  Json j = Json::object();
  j.set("schema", kJobSchema);
  j.set("job_id", r.job_id);
  j.set("tenant", r.tenant);
  j.set("op", r.op);
  j.set("priority", r.priority);
  j.set("state", r.state);
  j.set("reason", r.reason);
  j.set("admission", admission_json(r.admission));
  j.set("billing", billing_json(r.billing));
  return j;
}
}  // namespace

Json JobReport::to_json() const {
  Json j = header_json(*this);
  j.set("run", run.has_value() ? run->to_json() : Json());
  return j;
}

Json JobReport::deterministic_json() const {
  Json j = header_json(*this);
  if (state == "failed") {
    // A failed run's traffic measures how far each rank happened to get
    // before teardown — schedule-dependent, like wall clock. So is the
    // free-text reason (FailureReport::describe names the phase/op the
    // latched rank was in); only the closed-set failure kind is stable.
    // The classification (state/kind/admission) stays; the attempt-shaped
    // reason, billing and run sub-report go.
    j.set("reason",
          run.has_value() && run->failure.has_value() ? run->failure->kind
                                                      : std::string());
    j.set("billing", Json());
    j.set("run", Json());
    return j;
  }
  // A recovered job's surviving traffic depends on where the crash landed
  // relative to its checkpoints (and, for degraded-grid jobs, on how much
  // of the dead grid's progress the redistributed cache covered) — all
  // thread-schedule-dependent. So does the bill of a job a rank died
  // under: it folds in the failed attempt's traffic, which the other ranks
  // sent before the crash reached them, even when the job then re-ran at
  // full width on spare ranks. The outcome (done, admission) is
  // deterministic; the recovery-shaped billing and run sub-report are not.
  const bool recovered =
      run.has_value() && run->recovery.has_value() &&
      (run->recovery->restarts > 0 || run->recovery->resumed_generation >= 0 ||
       run->recovery->degraded_to_ranks > 0 ||
       run->recovery->regrown_to_ranks > 0 ||
       !run->recovery->dead_ranks.empty());
  if (recovered) {
    // What recovery *happened* is fault-plan-determined and survives:
    // relaunch count, the shrink/regrow shapes, and the planned backoff
    // ladder (a pure function of the attempt index). What it *cost*
    // (measured backoff waits, resumed generation, traffic) does not.
    Json rec;
    rec.set("restarts", run->recovery->restarts);
    if (run->recovery->degraded_to_ranks > 0) {
      rec.set("degraded_from_ranks", run->recovery->degraded_from_ranks);
      rec.set("degraded_to_ranks", run->recovery->degraded_to_ranks);
    }
    if (run->recovery->regrown_to_ranks > 0) {
      rec.set("regrown_from_ranks", run->recovery->regrown_from_ranks);
      rec.set("regrown_to_ranks", run->recovery->regrown_to_ranks);
    }
    Json plan = Json::array();
    for (const std::int64_t us : run->recovery->backoff_plan_us)
      plan.push_back(us);
    rec.set("backoff_plan_us", std::move(plan));
    j.set("recovery", rec);
    j.set("billing", Json());
    j.set("run", Json());
    return j;
  }
  j.set("run", run.has_value() ? run->deterministic_json() : Json());
  return j;
}

JobBilling bill_traffic(const vmpi::RunResult& result) {
  JobBilling bill;
  for (const Recorder& rec : result.recorders) {
    const vmpi::PhaseTraffic t = rec.traffic().total();
    bill.messages += t.messages;
    bill.logical_bytes += t.bytes;
    bill.shipped_bytes += t.shipped;
  }
  return bill;
}

}  // namespace casp::obs
