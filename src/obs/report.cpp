#include "obs/report.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace casp::obs {

namespace {

constexpr const char* kSchema = "casp.run_report.v1";

TrafficMatrix& ensure_matrix(std::map<std::string, TrafficMatrix>& matrices,
                             const std::string& phase, int ranks) {
  TrafficMatrix& m = matrices[phase];
  if (m.ranks == 0) {
    m.ranks = ranks;
    const std::size_t n =
        static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks);
    m.messages.assign(n, 0);
    m.bytes.assign(n, 0);
    m.shipped.assign(n, 0);
  }
  return m;
}

Json matrix_rows(const std::vector<std::uint64_t>& flat, int ranks) {
  Json rows = Json::array();
  for (int s = 0; s < ranks; ++s) {
    Json row = Json::array();
    for (int d = 0; d < ranks; ++d)
      row.push_back(flat[static_cast<std::size_t>(s) *
                             static_cast<std::size_t>(ranks) +
                         static_cast<std::size_t>(d)]);
    rows.push_back(std::move(row));
  }
  return rows;
}

Json phases_json(const RunReport& report, bool with_times) {
  Json phases = Json::object();
  for (const auto& [name, e] : report.phases) {
    Json p = Json::object();
    p.set("messages", e.total.messages);
    p.set("bytes", static_cast<std::uint64_t>(e.total.bytes));
    p.set("shipped_bytes", static_cast<std::uint64_t>(e.total.shipped));
    p.set("max_messages", e.max.messages);
    p.set("max_bytes", static_cast<std::uint64_t>(e.max.bytes));
    p.set("max_shipped_bytes", static_cast<std::uint64_t>(e.max.shipped));
    if (with_times) {
      p.set("seconds_sum", e.seconds_sum);
      p.set("seconds_max", e.seconds_max);
    }
    phases.set(name, std::move(p));
  }
  return phases;
}

Json matrices_json(const RunReport& report) {
  Json out = Json::object();
  for (const auto& [name, m] : report.matrices) {
    Json entry = Json::object();
    entry.set("ranks", m.ranks);
    entry.set("messages", matrix_rows(m.messages, m.ranks));
    entry.set("bytes", matrix_rows(m.bytes, m.ranks));
    entry.set("shipped_bytes", matrix_rows(m.shipped, m.ranks));
    out.set(name, std::move(entry));
  }
  return out;
}

Json counters_json(const RunReport& report) {
  Json out = Json::object();
  for (const auto& [name, v] : report.counters) out.set(name, v);
  return out;
}

}  // namespace

RunReport build_report(const vmpi::RunResult& result) {
  RunReport report;
  report.ranks = result.size;
  report.wall_seconds = result.wall_seconds;

  for (const Recorder& rec : result.recorders) {
    for (const auto& [phase, t] : rec.traffic().per_phase()) {
      PhaseEntry& e = report.phases[phase];
      e.total += t;
      e.max.messages = std::max(e.max.messages, t.messages);
      e.max.bytes = std::max(e.max.bytes, t.bytes);
      e.max.shipped = std::max(e.max.shipped, t.shipped);
    }
  }
  for (const Recorder& rec : result.recorders) {
    for (const auto& [name, seconds] : rec.times().all()) {
      PhaseEntry& e = report.phases[name];
      e.seconds_sum += seconds;
      e.seconds_max = std::max(e.seconds_max, seconds);
    }
  }
  for (std::size_t r = 0; r < result.recorders.size(); ++r) {
    const vmpi::TrafficStats& traffic = result.recorders[r].traffic();
    for (const auto& [phase, dests] : traffic.per_dest()) {
      TrafficMatrix& m = ensure_matrix(report.matrices, phase, result.size);
      for (const auto& [dst, t] : dests) {
        m.msg_at(static_cast<int>(r), dst) += t.messages;
        m.bytes_at(static_cast<int>(r), dst) +=
            static_cast<std::uint64_t>(t.bytes);
        m.shipped_at(static_cast<int>(r), dst) +=
            static_cast<std::uint64_t>(t.shipped);
      }
    }
  }
  // One merge rule: a "_max" counter is the maximum of a quantity that
  // differs by rank (one grid row's or one fiber's), so the job's value is
  // the max over ranks; every other counter keeps the first rank's value.
  for (const obs::Recorder& rec : result.recorders) {
    for (const auto& [name, v] : rec.counters()) {
      const auto [it, fresh] = report.counters.emplace(name, v);
      if (!fresh && name.find("_max") != std::string::npos)
        it->second = std::max(it->second, v);
    }
    report.peak_bytes_per_rank.push_back(rec.peak_bytes());
    report.peak_bytes_max = std::max(report.peak_bytes_max, rec.peak_bytes());
  }
  report.failure = result.failure;
  return report;
}

RunReport build_report(const vmpi::SupervisedResult& supervised) {
  RunReport report = build_report(supervised.result);
  RecoveryReport rec;
  rec.restarts = supervised.restarts;
  rec.max_restarts = supervised.max_restarts;
  for (const vmpi::FailureReport& f : supervised.recovered_failures)
    rec.failure_kinds.push_back(f.kind);
  rec.wasted_seconds = supervised.wasted_seconds;
  rec.backoff_us = supervised.backoff_us;
  rec.backoff_plan_us = supervised.backoff_plan_us;
  for (const obs::Recorder& r : supervised.result.recorders) {
    const auto it = r.counters().find("ckpt.resumed_generation");
    if (it != r.counters().end())
      rec.resumed_generation = std::max(rec.resumed_generation, it->second);
  }
  report.recovery = rec;
  return report;
}

Json RunReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema", kSchema);
  doc.set("ranks", ranks);
  doc.set("wall_seconds", wall_seconds);
  doc.set("phases", phases_json(*this, /*with_times=*/true));
  doc.set("counters", counters_json(*this));
  Json mem = Json::object();
  mem.set("peak_bytes_max", static_cast<std::uint64_t>(peak_bytes_max));
  Json per_rank = Json::array();
  for (const Bytes b : peak_bytes_per_rank)
    per_rank.push_back(static_cast<std::uint64_t>(b));
  mem.set("peak_bytes_per_rank", std::move(per_rank));
  doc.set("memory", std::move(mem));
  doc.set("traffic_matrix", matrices_json(*this));
  if (failure.has_value()) {
    Json f = Json::object();
    f.set("kind", failure->kind);
    f.set("rank", failure->rank);
    f.set("phase", failure->phase);
    f.set("what", failure->what);
    doc.set("failure", std::move(f));
  }
  if (recovery.has_value()) {
    Json r = Json::object();
    r.set("restarts", recovery->restarts);
    r.set("max_restarts", recovery->max_restarts);
    Json kinds = Json::array();
    for (const std::string& k : recovery->failure_kinds) kinds.push_back(k);
    r.set("failure_kinds", std::move(kinds));
    r.set("resumed_generation",
          static_cast<std::int64_t>(recovery->resumed_generation));
    r.set("wasted_seconds", recovery->wasted_seconds);
    Json backoff = Json::array();
    for (const std::int64_t us : recovery->backoff_us) backoff.push_back(us);
    r.set("backoff_us", std::move(backoff));
    Json plan = Json::array();
    for (const std::int64_t us : recovery->backoff_plan_us)
      plan.push_back(us);
    r.set("backoff_plan_us", std::move(plan));
    if (recovery->degraded_to_ranks > 0) {
      Json d = Json::object();
      d.set("from_ranks", recovery->degraded_from_ranks);
      d.set("from_layers", recovery->degraded_from_layers);
      d.set("to_ranks", recovery->degraded_to_ranks);
      d.set("to_layers", recovery->degraded_to_layers);
      Json dead = Json::array();
      for (const int dr : recovery->dead_ranks) dead.push_back(dr);
      d.set("dead_ranks", std::move(dead));
      r.set("degraded", std::move(d));
    }
    if (recovery->regrown_to_ranks > 0) {
      Json g = Json::object();
      g.set("from_ranks", recovery->regrown_from_ranks);
      g.set("from_layers", recovery->regrown_from_layers);
      g.set("to_ranks", recovery->regrown_to_ranks);
      g.set("to_layers", recovery->regrown_to_layers);
      Json rj = Json::array();
      for (const int rr : recovery->rejoined_ranks) rj.push_back(rr);
      g.set("rejoined_ranks", std::move(rj));
      r.set("regrown", std::move(g));
    }
    doc.set("recovery", std::move(r));
  }
  return doc;
}

Json RunReport::deterministic_json() const {
  Json doc = Json::object();
  doc.set("schema", kSchema);
  doc.set("ranks", ranks);
  doc.set("phases", phases_json(*this, /*with_times=*/false));
  doc.set("counters", counters_json(*this));
  doc.set("traffic_matrix", matrices_json(*this));
  return doc;
}

void write_report_json(const RunReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open report file: " + path);
  out << report.to_json().dump_pretty();
  if (!out) throw std::runtime_error("failed writing report file: " + path);
}

std::string chrome_trace_string(const vmpi::RunResult& result) {
  Json events = Json::array();
  for (std::size_t r = 0; r < result.recorders.size(); ++r) {
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 0);
    meta.set("tid", static_cast<std::int64_t>(r));
    Json margs = Json::object();
    margs.set("name", "rank " + std::to_string(r));
    meta.set("args", std::move(margs));
    events.push_back(std::move(meta));
  }
  for (std::size_t r = 0; r < result.recorders.size(); ++r) {
    for (const TimelineEvent& ev : result.recorders[r].events()) {
      Json e = Json::object();
      e.set("name", ev.name);
      switch (ev.kind) {
        case TimelineEvent::Kind::kBegin:
          e.set("ph", "B");
          break;
        case TimelineEvent::Kind::kEnd:
          e.set("ph", "E");
          break;
        case TimelineEvent::Kind::kCounter:
          e.set("ph", "C");
          break;
      }
      e.set("ts", ev.t * 1e6);  // Chrome trace timestamps are microseconds
      e.set("pid", 0);
      e.set("tid", static_cast<std::int64_t>(r));
      Json args = Json::object();
      if (ev.kind == TimelineEvent::Kind::kCounter)
        args.set("value", ev.value);
      if (ev.tags.stage >= 0) args.set("stage", ev.tags.stage);
      if (ev.tags.batch >= 0) args.set("batch", ev.tags.batch);
      if (ev.tags.layer >= 0) args.set("layer", ev.tags.layer);
      if (ev.tags.iteration >= 0) args.set("iteration", ev.tags.iteration);
      if (!args.members().empty()) e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump();
}

void write_chrome_trace(const vmpi::RunResult& result,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  out << chrome_trace_string(result) << "\n";
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

}  // namespace casp::obs
