// Benchmark-side span recorder.
//
// Spans are recorded from the benchmark's own code, around each call into a
// library layer (generator, distribution, batched SUMMA, vmpi launch, report
// building, service submit/drain). Every span carries the id of the op it
// belongs to and the id of the span that caused it, so a Chrome trace of
// the spans nests per op. Spans live in memory and are written out once,
// after the timed loop. With recording off a Span only reads the clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"

namespace e2e {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root of its op
  std::uint64_t op = 0;
  int lane = 0;  ///< Chrome-trace tid: 0 = client thread, r + 1 = rank r
  double t0 = 0.0;  ///< seconds since the tracer's epoch
  double t1 = 0.0;
};

class Tracer {
 public:
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  double now() const { return epoch_.seconds(); }
  std::uint64_t next_id() { return ++next_id_; }

  /// Thread-safe append; rank threads record concurrently.
  void record(SpanRecord span);
  std::vector<SpanRecord> spans() const;

  /// Chrome trace-event JSON ("X" events, ts/dur in microseconds, pid 1,
  /// tid = lane); args carry op, span and parent ids.
  void write_chrome_trace(const std::string& path) const;

 private:
  casp::Stopwatch epoch_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. close() ends it early and returns its duration in seconds
/// (measured whether or not the tracer records).
class Span {
 public:
  /// `rank` >= 0 puts the span on that rank's lane of the trace.
  Span(Tracer& tracer, std::string name, std::uint64_t op,
       std::uint64_t parent, int rank = -1);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  double close();

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t op_;
  std::uint64_t parent_;
  int lane_;
  std::uint64_t id_;
  double t0_;
  double seconds_ = 0.0;
  bool open_ = true;
};

}  // namespace e2e
