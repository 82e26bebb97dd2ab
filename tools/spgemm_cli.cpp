// spgemm — multiply Matrix Market files with BatchedSUMMA3D.
//
// A thin wrapper over the job service: flags build one svc::JobSpec, the
// spec is submitted to an in-process svc::Server, and the product plus the
// per-job "casp.job_report.v1" report come back from the job record. The
// only direct-run path left is --batch-dir, which streams batches to disk
// through a callback the service API deliberately does not carry.
//
// Usage:
//   spgemm A.mtx [B.mtx]            multiply two files (omit B to square A)
//     --aat                         multiply A by its transpose instead
//     --stats                       print flops / nnz / cf before running
//     --batch-dir DIR               stream batches to DIR instead of RAM
//   plus the shared JobSpec flags (see --help).
//
// Exit status 0 on success; a short per-step breakdown is always printed.
#include <algorithm>
#include <iostream>
#include <string>
#include <utility>

#include "apps/batch_io.hpp"
#include "ckpt/checkpoint.hpp"
#include "cli_common.hpp"
#include "grid/dist.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/stats.hpp"
#include "summa/batched.hpp"
#include "vmpi/runtime.hpp"

namespace {
void usage() {
  std::cerr << "usage: spgemm A.mtx [B.mtx] [--aat] [--stats] "
               "[--batch-dir DIR] [flags]\n"
            << casp::cli::common_flags_help();
}

/// Direct-run escape hatch for --batch-dir: the service keeps gathered
/// results in the job record, but batch streaming wants a per-rank disk
/// writer callback, so this path drives vmpi::run_supervised itself — still
/// deriving every option from the same JobSpec views the service uses.
int run_streaming(const casp::svc::JobSpec& spec, const casp::CscMat& a,
                  const casp::CscMat& b, const std::string& batch_dir,
                  const casp::cli::CommonArgs& args) {
  using namespace casp;
  auto body = [&](vmpi::Comm& world) {
    MemoryTracker tracker(
        spec.memory_bytes == 0
            ? 0
            : std::max<Bytes>(1, spec.memory_bytes /
                                     static_cast<Bytes>(world.size())));
    vmpi::arm_alloc_faults(world, tracker);
    SummaOptions my_opts = spec.summa_options();
    if (spec.memory_bytes != 0) my_opts.memory = &tracker;
    ckpt::Checkpointer ck;
    if (!spec.ckpt_dir.empty()) {
      ck = ckpt::Checkpointer(spec.ckpt_dir, world.rank(), spec.ckpt_every,
                              &world.recorder());
      my_opts.ckpt = &ck;
    }
    Grid3D grid(world, spec.layers);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    (void)batched_summa3d<PlusTimes>(
        grid, da, db, spec.memory_bytes, my_opts,
        make_disk_batch_writer(batch_dir, world.rank()),
        /*keep_output=*/false);
  };

  // An unsupervised spec's chain runs one attempt.
  vmpi::SupervisedResult sup =
      vmpi::run_supervised(spec.ranks, body, spec.supervisor_options());
  if (sup.restarts > 0) {
    std::cout << "supervisor: " << sup.restarts << " restart(s)";
    if (sup.recovered()) std::cout << ", recovered";
    std::cout << "\n";
  }
  const vmpi::RunResult& result = sup.result;
  if (!args.trace_path.empty()) {
    obs::write_chrome_trace(result, args.trace_path);
    std::cout << "wrote " << args.trace_path << "\n";
  }
  if (result.failed()) {
    std::cerr << result.failure->describe() << "\n";
    return 1;
  }
  std::cout << "batches streamed to " << batch_dir << "\n";
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace casp;
  cli::CommonArgs args;
  args.spec.ranks = 16;
  args.spec.layers = 4;
  bool stats = false;
  std::string batch_dir;
  const int rc = cli::parse_common(
      argc, argv, args,
      [&](const std::string& arg,
          const std::function<std::string(const char*)>& next) {
        if (arg == "--aat") {
          args.spec.aat = true;
        } else if (arg == "--stats") {
          stats = true;
        } else if (arg == "--batch-dir") {
          batch_dir = next("--batch-dir");
        } else {
          return false;
        }
        return true;
      });
  if (rc != 0 || args.help || args.positional.empty() ||
      args.positional.size() > 2) {
    usage();
    return rc != 0 ? rc : (args.help ? 0 : 2);
  }
  svc::JobSpec& spec = args.spec;
  spec.op = svc::JobOp::kSpGemm;
  spec.a = svc::MatrixSource::file(args.positional[0]);
  if (args.positional.size() == 2)
    spec.b = svc::MatrixSource::file(args.positional[1]);

  try {
    if (!batch_dir.empty()) {
      spec.validate();
      const CscMat a = spec.a.materialize();
      const CscMat b = spec.aat ? a.transpose()
                                : (spec.b.empty() ? a : spec.b.materialize());
      std::cout << describe("A", a) << "\n" << describe("B", b) << "\n";
      return run_streaming(spec, a, b, batch_dir, args);
    }

    svc::ServerOptions server_opts;
    server_opts.pool_ranks = spec.ranks;
    svc::Server server(std::move(server_opts));
    const std::string id = server.submit(std::move(spec));
    const svc::JobRecord* queued = server.find(id);
    std::cout << describe("A", queued->in_a) << "\n"
              << describe("B", queued->in_b) << "\n";
    if (stats) {
      const MultiplyStats ms = multiply_stats(queued->in_a, queued->in_b);
      std::cout << "flops=" << ms.flops << " nnz(C)=" << ms.nnz_c
                << " cf=" << ms.compression_factor << "\n";
    }

    const svc::JobRecord& job = server.wait(id);
    const int out = cli::report_outcome(job, args);
    if (out != 0) return out;

    std::cout << "ran on " << job.spec.ranks << " virtual ranks, "
              << job.spec.layers << " layer(s), " << job.batches
              << " batch(es)";
    if (job.final_batches != job.batches)
      std::cout << " (re-batched to " << job.final_batches << ")";
    std::cout << "\n";
    for (const std::string& name : job.run_result.time_names())
      std::cout << "  " << name << ": " << job.run_result.max_time(name) * 1e3
                << " ms\n";
    std::cout << describe("C", job.c) << "\n";
    if (!args.out_path.empty()) {
      write_matrix_market_file(args.out_path, job.c.to_triples());
      std::cout << "wrote " << args.out_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
