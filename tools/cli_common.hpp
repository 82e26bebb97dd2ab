// Shared command-line handling for the JobSpec-driven tools (spgemm, mcl,
// spgemm_serve).
//
// Every tool used to hand-roll the same flags (--ranks, --memory-mb,
// --ckpt-dir, --report, ...) with subtly different parsing and defaults;
// now there is exactly one mapping from flags onto svc::JobSpec — the one
// job-description API — plus the handful of CLI-side outputs (where to
// write the product, the report, the trace). Tool-specific flags hook in
// through the `extra` callback; everything else lands in the spec and is
// validated by JobSpec::validate() at submit.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "svc/server.hpp"

namespace casp::cli {

/// Parsed command line: the job description plus CLI-side outputs.
struct CommonArgs {
  svc::JobSpec spec;
  std::vector<std::string> positional;
  std::string out_path;
  std::string report_path;
  std::string trace_path;
  bool help = false;
};

/// Tool-specific flag hook: return true when `arg` was consumed. `next`
/// fetches the flag's value (exits 2 when missing, like the shared flags).
using ExtraFlag = std::function<bool(
    const std::string& arg, const std::function<std::string(const char*)>& next)>;

/// One-line description of every flag the shared parser understands, for
/// usage text.
inline const char* common_flags_help() {
  return "  --ranks N --layers L          grid shape (ranks/layers: square)\n"
         "  --memory-mb M                 aggregate budget (0 = unlimited)\n"
         "  --batches B                   pin the batch count (0 = symbolic)\n"
         "  --kernel hash|hybrid          this paper's / prior-work pipeline\n"
         "  --threads T                   per-rank kernel threads\n"
         "  --sparse-comm                 symbolic-informed sparse A exchange\n"
         "  --ckpt-dir DIR --ckpt-every N checkpoint/restart cadence\n"
         "  --max-restarts R              supervise: relaunch up to R times\n"
         "  --faults SPEC                 FaultPlan spec for this job only\n"
         "  --tenant T --priority P --job-id ID   service identity\n"
         "  --inflation R --prune T --keep K --max-iters I   MCL knobs\n"
         "  --out F --report F.json --trace F.json           outputs\n";
}

/// Parse argv into `args`. Returns 0 on success (args.help set when --help
/// was seen), 2 on a malformed command line (message already printed).
inline int parse_common(int argc, char** argv, CommonArgs& args,
                        const ExtraFlag& extra = {}) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    svc::JobSpec& spec = args.spec;
    try {
      if (arg == "--ranks") {
        spec.ranks = std::stoi(next("--ranks"));
      } else if (arg == "--layers") {
        spec.layers = std::stoi(next("--layers"));
      } else if (arg == "--memory-mb") {
        spec.memory_bytes =
            static_cast<Bytes>(std::stoll(next("--memory-mb"))) * 1024 * 1024;
      } else if (arg == "--batches") {
        spec.force_batches = std::stoll(next("--batches"));
      } else if (arg == "--kernel") {
        spec.kernel = svc::pipeline_from_string(next("--kernel"));
      } else if (arg == "--threads") {
        spec.threads = std::stoi(next("--threads"));
      } else if (arg == "--sparse-comm") {
        spec.sparse_comm = true;
      } else if (arg == "--ckpt-dir") {
        spec.ckpt_dir = next("--ckpt-dir");
      } else if (arg == "--ckpt-every") {
        spec.ckpt_every = std::stoull(next("--ckpt-every"));
        if (spec.ckpt_every == 0) {
          std::cerr << "--ckpt-every must be >= 1\n";
          return 2;
        }
      } else if (arg == "--max-restarts") {
        spec.max_restarts = std::stoi(next("--max-restarts"));
        if (spec.max_restarts < 0) {
          std::cerr << "--max-restarts must be >= 0\n";
          return 2;
        }
      } else if (arg == "--faults") {
        spec.fault_spec = next("--faults");
      } else if (arg == "--tenant") {
        spec.tenant = next("--tenant");
      } else if (arg == "--priority") {
        spec.priority = std::stoi(next("--priority"));
      } else if (arg == "--job-id") {
        spec.job_id = next("--job-id");
      } else if (arg == "--inflation") {
        spec.mcl.inflation = std::stod(next("--inflation"));
      } else if (arg == "--prune") {
        spec.mcl.prune_threshold = std::stod(next("--prune"));
      } else if (arg == "--keep") {
        spec.mcl.keep_per_col = std::stoll(next("--keep"));
      } else if (arg == "--max-iters") {
        spec.mcl.max_iterations = std::stoi(next("--max-iters"));
      } else if (arg == "--out") {
        args.out_path = next("--out");
      } else if (arg == "--report") {
        args.report_path = next("--report");
      } else if (arg == "--trace") {
        args.trace_path = next("--trace");
      } else if (arg == "--help" || arg == "-h") {
        args.help = true;
        return 0;
      } else if (extra && extra(arg, next)) {
        // tool-specific flag, consumed by the hook
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "unknown option " << arg << "\n";
        return 2;
      } else {
        args.positional.push_back(arg);
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  return 0;
}

/// Shared post-run handling: write the per-job report ("casp.job_report.v1")
/// and the Chrome trace when asked, echo supervision/failure summaries.
/// Returns the process exit code (0 done, 1 failed/rejected/throttled).
inline int report_outcome(const svc::JobRecord& job, const CommonArgs& args) {
  if (!args.report_path.empty()) {
    std::ofstream out(args.report_path);
    if (!out) {
      std::cerr << "cannot open " << args.report_path << "\n";
      return 1;
    }
    out << job.report.to_json().dump_pretty() << "\n";
    std::cout << "wrote " << args.report_path << "\n";
  }
  if (!args.trace_path.empty()) {
    obs::write_chrome_trace(job.run_result, args.trace_path);
    std::cout << "wrote " << args.trace_path << "\n";
  }
  if (job.report.billing.restarts > 0) {
    std::cout << "supervisor: " << job.report.billing.restarts
              << " restart(s)";
    if (job.state == svc::JobState::kDone) std::cout << ", recovered";
    std::cout << "\n";
  }
  if (job.state != svc::JobState::kDone) {
    std::cerr << to_string(job.state) << ": " << job.reason << "\n";
    return 1;
  }
  return 0;
}

}  // namespace casp::cli
