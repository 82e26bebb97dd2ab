#include "svc/quota.hpp"

namespace casp::svc {

void TenantLedger::bill(const obs::JobBilling& bill,
                        const vmpi::RunResult& run) {
  messages_billed_ += bill.messages;
  logical_billed_ += bill.logical_bytes;
  shipped_billed_ += bill.shipped_bytes;
  restarts_billed_ += bill.restarts;
  for (const obs::Recorder& rec : run.recorders)
    for (const auto& [phase, t] : rec.traffic().per_phase())
      logical_by_phase_[phase] += t.bytes;
}

obs::Json TenantLedger::report() const {
  obs::Json j = obs::Json::object();
  j.set("schema", "casp.tenant_report.v1");
  j.set("tenant", name_);

  obs::Json q = obs::Json::object();
  q.set("memory_bytes", quota_.memory_bytes);
  q.set("traffic_bytes", quota_.traffic_bytes);
  j.set("quota", std::move(q));

  obs::Json mem = obs::Json::object();
  mem.set("reserved_bytes", reserved());
  mem.set("peak_reserved_bytes", peak_reserved());
  j.set("memory", std::move(mem));

  obs::Json traffic = obs::Json::object();
  traffic.set("messages", messages_billed_);
  traffic.set("logical_bytes", logical_billed_);
  traffic.set("shipped_bytes", shipped_billed_);
  traffic.set("restarts", restarts_billed_);
  traffic.set("exhausted", traffic_exhausted());
  obs::Json phases = obs::Json::object();
  for (const auto& [phase, bytes] : logical_by_phase_)
    phases.set(phase, bytes);
  traffic.set("logical_bytes_by_phase", std::move(phases));
  j.set("traffic", std::move(traffic));

  obs::Json jobs = obs::Json::object();
  for (const auto& [state, count] : jobs_by_state_) jobs.set(state, count);
  j.set("jobs_by_state", std::move(jobs));
  return j;
}

}  // namespace casp::svc
