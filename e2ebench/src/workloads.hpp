// The benchmark's three workloads, each a client of the casp library.
//
//   protein-membound  A*A of an Isolates-s protein analog on a 2x2x1 grid
//                     under a per-rank MemoryTracker budget (b = 4 batches).
//   rmat-fiber        A*A of the Friendster-s R-MAT analog on a 1x1x4 grid
//                     (AllToAll-Fiber + Merge-Fiber dominate).
//   serve-mix         waves of 12 small jobs submitted to one svc::Server,
//                     then drained.
//
// Set-up (timed by the caller as setup_s) is everything setup_workload
// does: input generation, serial reference products, pool/server start and
// one warm-up op. run_op runs one closed-loop op (a job, or a wave) and
// checks its outputs against the references.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace e2e {

/// One op's measurements.
struct OpRecord {
  double op_s = 0.0;
  int jobs = 0;
  /// Empty when every output matched its reference; else the first reason.
  std::string error;
  /// CPU seconds the op's jobs used (summed over ranks).
  double cpu_s = 0.0;
  /// Max over ranks (and jobs) of the MemoryTracker peak.
  double mem_peak_bytes = 0.0;
  /// Counts that must repeat exactly across the ops of one run.
  std::map<std::string, double> exact;
  /// Per-layer readings (timings and counts).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What one op is: "job" or "wave".
  virtual const char* op_unit() const = 0;
  virtual OpRecord run_op(Tracer& tracer, std::uint64_t op) = 0;
  /// Upkeep between two ops; its time counts in no metric.
  virtual void between_ops(Tracer& /*tracer*/) {}
  /// obs::write_chrome_trace of the most recent op's run.
  virtual void write_program_trace(const std::string& path) const = 0;
};

const std::vector<std::string>& workload_names();

/// Build and warm up a workload. `work_dir` holds its scratch files
/// (checkpoints). Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> setup_workload(const std::string& name,
                                         std::uint64_t seed,
                                         const std::string& work_dir,
                                         Tracer& tracer);

}  // namespace e2e
