// casp_e2e: runs one workload closed-loop and writes every op's raw
// measurements as JSON; e2ebench/run.py turns them into metrics.
//
//   casp_e2e --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//            [--min-ops K]
//
// Set-up runs three times and each is timed; the last one's state serves
// the timed loop, after kWarmupSeconds of untimed ops. --trace 0 runs one
// untraced phase of S seconds. --trace 1 runs an untraced phase and then a
// traced phase of S/2 seconds each (the pair gives the tracing overhead)
// and writes DIR/bench_trace.json (the benchmark's spans) and
// DIR/program_trace.json (the library's own obs::write_chrome_trace of the
// last traced op). Each phase also runs at least K ops (default 15), so
// its percentiles have samples.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "common/timer.hpp"
#include "obs/json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using casp::obs::Json;

constexpr int kSetups = 3;
/// Untimed ops between the last set-up and the first timed phase: the
/// first waves after set-up ran up to 2.5x slower than the rest.
constexpr double kWarmupSeconds = 2.0;
/// No new op starts past this many seconds of a phase.
constexpr double kPhaseCapSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int min_ops = 15;
  std::string out_dir;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--out-dir") a.out_dir = value;
    else if (key == "--min-ops") a.min_ops = std::stoi(value);
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (a.workload.empty() || a.out_dir.empty())
    throw std::invalid_argument("--workload and --out-dir are required");
  return a;
}

Json to_json(const std::map<std::string, double>& m) {
  Json j = Json::object();
  for (const auto& [k, v] : m) j.set(k, v);
  return j;
}

Json to_json(const e2e::OpRecord& r) {
  Json j = Json::object();
  j.set("op_s", r.op_s);
  j.set("jobs", r.jobs);
  j.set("error", r.error);
  j.set("cpu_s", r.cpu_s);
  j.set("mem_peak_bytes", r.mem_peak_bytes);
  j.set("exact", to_json(r.exact));
  j.set("layer", to_json(r.layer));
  return j;
}

/// Closed loop: the next op starts when the previous one returns. The
/// phase's seconds leave out the workload's upkeep between ops.
Json run_phase(e2e::Workload& w, e2e::Tracer& tracer, bool traced,
               double seconds, int min_ops, std::uint64_t& next_op) {
  tracer.set_recording(traced);
  Json ops = Json::array();
  casp::Stopwatch clock;
  double upkeep_s = 0.0;
  int n = 0;
  while ((clock.seconds() - upkeep_s < seconds || n < min_ops) &&
         clock.seconds() < kPhaseCapSeconds) {
    ops.push_back(to_json(w.run_op(tracer, ++next_op)));
    ++n;
    casp::Stopwatch upkeep;
    w.between_ops(tracer);
    upkeep_s += upkeep.seconds();
  }
  const double elapsed = clock.seconds() - upkeep_s;
  tracer.set_recording(false);
  Json phase = Json::object();
  phase.set("traced", traced);
  phase.set("seconds", elapsed);
  phase.set("ops", std::move(ops));
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    std::filesystem::create_directories(args.out_dir);
    const std::string work_dir = args.out_dir + "/work";
    e2e::Tracer tracer;

    Json setup_s = Json::array();
    std::unique_ptr<e2e::Workload> w;
    tracer.set_recording(args.trace);  // set-up spans land in the trace too
    for (int i = 0; i < kSetups; ++i) {
      w.reset();
      casp::Stopwatch clock;
      w = e2e::setup_workload(args.workload, args.seed, work_dir, tracer);
      setup_s.push_back(clock.seconds());
    }

    tracer.set_recording(false);
    std::uint64_t next_op = 0;
    for (casp::Stopwatch warm; warm.seconds() < kWarmupSeconds;) {
      (void)w->run_op(tracer, ++next_op);
      w->between_ops(tracer);
    }

    Json phases = Json::array();
    if (!args.trace) {
      phases.push_back(
          run_phase(*w, tracer, false, args.seconds, args.min_ops, next_op));
    } else {
      phases.push_back(run_phase(*w, tracer, false, args.seconds / 2,
                                 args.min_ops, next_op));
      phases.push_back(run_phase(*w, tracer, true, args.seconds / 2,
                                 args.min_ops, next_op));
      tracer.write_chrome_trace(args.out_dir + "/bench_trace.json");
      w->write_program_trace(args.out_dir + "/program_trace.json");
    }

    Json doc = Json::object();
    doc.set("workload", args.workload);
    doc.set("seed", args.seed);
    doc.set("op_unit", w->op_unit());
    doc.set("setup_s", std::move(setup_s));
    doc.set("phases", std::move(phases));
    w.reset();
    std::ofstream out(args.out_dir + "/records.json");
    out << doc.dump() << "\n";
    if (!out) throw std::runtime_error("cannot write records.json");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casp_e2e: %s\n", e.what());
    return 2;
  }
}
