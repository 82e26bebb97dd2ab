#include "spans.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace e2e {

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  using casp::obs::Json;
  Json events = Json::array();
  for (const SpanRecord& s : spans()) {
    Json e = Json::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", s.lane);
    e.set("ts", s.t0 * 1e6);
    e.set("dur", (s.t1 - s.t0) * 1e6);
    Json args = Json::object();
    args.set("op", s.op);
    args.set("span", s.id);
    args.set("parent", s.parent);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << doc.dump() << "\n";
}

Span::Span(Tracer& tracer, std::string name, std::uint64_t op,
           std::uint64_t parent, int rank)
    : tracer_(tracer),
      name_(std::move(name)),
      op_(op),
      parent_(parent),
      lane_(rank + 1),
      id_(tracer.recording() ? tracer.next_id() : 0),
      t0_(tracer.now()) {}

double Span::close() {
  if (!open_) return seconds_;
  open_ = false;
  const double t1 = tracer_.now();
  seconds_ = t1 - t0_;
  if (id_ != 0)
    tracer_.record({std::move(name_), id_, parent_, op_, lane_, t0_, t1});
  return seconds_;
}

}  // namespace e2e
