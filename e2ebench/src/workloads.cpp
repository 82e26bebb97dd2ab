#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "apps/mcl.hpp"
#include "apps/triangle.hpp"
#include "common/math.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "gen/protein.hpp"
#include "gen/rmat.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "obs/report.hpp"
#include "oracle.hpp"
#include "sparse/stats.hpp"
#include "summa/batched.hpp"
#include "svc/admission.hpp"
#include "svc/server.hpp"
#include "vmpi/runtime.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace casp;

namespace {

constexpr int kRanks = 4;  // = nproc: more rank threads would time-slice

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Per-input seed derived from the run's --seed.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + salt;
  return splitmix64(state);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double counter(const obs::RunReport& report, const std::string& name) {
  const auto it = report.counters.find(name);
  return it == report.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Per-phase traffic totals (sum over ranks): exact counts and per-layer
/// readings under the same names.
void add_traffic(OpRecord& rec,
                 const std::map<std::string, vmpi::PhaseTraffic>& per_phase) {
  for (const auto& [phase, t] : per_phase) {
    const std::string base = "traffic." + phase + ".";
    rec.exact[base + "messages"] += static_cast<double>(t.messages);
    rec.exact[base + "bytes"] += static_cast<double>(t.bytes);
    rec.exact[base + "shipped"] += static_cast<double>(t.shipped);
  }
}

/// Critical-path (max over ranks) seconds of the paper's seven steps.
void add_steps(OpRecord& rec, const obs::RunReport& report) {
  for (const char* step : steps::kAll) {
    const auto it = report.phases.find(step);
    rec.layer[std::string("step.") + step + ".s"] +=
        it == report.phases.end() ? 0.0 : it->second.seconds_max;
  }
}

/// Layer readings derived from the exact counts and step times.
void derive_layer(OpRecord& rec, double flops, double nnz_c) {
  for (const auto& [name, value] : rec.exact) rec.layer[name] = value;
  rec.layer["kernels.flops"] = flops;
  rec.layer["kernels.nnz_c"] = nnz_c;
  rec.layer["kernels.compression"] = nnz_c > 0 ? flops / nnz_c : 0.0;
  const double lm = get(rec.layer, "step.Local-Multiply.s");
  rec.layer["kernels.mflops_per_s"] = lm > 0 ? flops / lm / 1e6 : 0.0;
  // Each multiply streams one A nonzero and each output entry is written
  // once, at the library's r = kBytesPerNonzero bytes per nonzero.
  rec.layer["kernels.bytes_computed"] =
      static_cast<double>(kBytesPerNonzero) * (flops + nnz_c);
  const double logical = get(rec.exact, "traffic.A-Bcast.bytes");
  rec.layer["sparse.saved_frac"] =
      logical > 0 ? 1.0 - get(rec.exact, "traffic.A-Bcast.shipped") / logical
                  : 0.0;
}

// ---------------------------------------------------------------------------
// protein-membound / rmat-fiber: one batched_summa3d job per op.
// ---------------------------------------------------------------------------

class DirectSpgemm final : public Workload {
 public:
  /// `total_memory` is the aggregate budget M; 0 = unconstrained (b = 1,
  /// each rank's tracker only counts).
  DirectSpgemm(CscMat a, int layers, Bytes total_memory, Tracer& tracer)
      : a_(std::move(a)), layers_(layers), total_memory_(total_memory) {
    {
      Span s(tracer, "kernels.reference_multiply", 0, 0);
      reference_.add(reference_multiply<PlusTimes>(a_, a_), 0, 0);
    }
    (void)run_op(tracer, 0);  // warm-up
  }

  const char* op_unit() const override { return "job"; }

  OpRecord run_op(Tracer& tracer, std::uint64_t op) override {
    OpRecord rec;
    rec.jobs = 1;
    const std::uint64_t copies0 = Payload::deep_copies();
    std::vector<Fingerprint> fps(kRanks);
    std::vector<double> cpu(kRanks), wall(kRanks), dist_s(kRanks),
        summa_s(kRanks), peak(kRanks);
    BatchedResult head;  // rank 0's result
    Span op_span(tracer, "op", op, 0);
    vmpi::RunResult result;
    try {
      Span run_span(tracer, "vmpi.run", op, op_span.id());
      const std::uint64_t run_id = run_span.id();
      result = vmpi::run(kRanks, [&](vmpi::Comm& world) {
        const int rank = world.rank();
        const auto r = static_cast<std::size_t>(rank);
        const double cpu0 = clock_seconds(CLOCK_THREAD_CPUTIME_ID);
        Span rank_span(tracer, "vmpi.rank", op, run_id, rank);
        Grid3D grid(world, layers_);
        Span dist(tracer, "grid.distribute", op, rank_span.id(), rank);
        const DistMat3D da = distribute_a_style(grid, a_);
        const DistMat3D db = distribute_b_style(grid, a_);
        dist_s[r] = dist.close();
        MemoryTracker tracker(total_memory_ / kRanks);
        SummaOptions opts;
        opts.memory = &tracker;
        opts.adaptive_rebatch = total_memory_ > 0;
        Span call(tracer, "summa.batched_summa3d", op, rank_span.id(), rank);
        BatchedResult br = batched_summa3d<PlusTimes>(
            grid, da, db, total_memory_, opts,
            [&](CscMat&& piece, const BatchInfo& info) {
              fps[r].add(piece, info.global_rows.start,
                         info.global_cols.start);
            },
            /*keep_output=*/false);
        summa_s[r] = call.close();
        peak[r] = static_cast<double>(tracker.peak());
        if (r == 0) head = std::move(br);
        wall[r] = rank_span.close();
        cpu[r] = clock_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
      });
    } catch (const std::exception& e) {
      rec.error = std::string("job failed: ") + e.what();
      rec.op_s = op_span.close();
      return rec;
    }
    double report_s = 0.0;
    obs::RunReport report;
    {
      Span s(tracer, "obs.build_report", op, op_span.id());
      report = obs::build_report(result);
      (void)report.to_json().dump();
      report_s = s.close();
    }
    rec.op_s = op_span.close();

    Fingerprint got;
    for (const Fingerprint& f : fps) got += f;
    rec.error = compare(got, reference_);

    double cpu_sum = 0.0, cpu_max = 0.0, wait_max = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      cpu_sum += cpu[r];
      cpu_max = std::max(cpu_max, cpu[r]);
      wait_max = std::max(wait_max, wall[r] - cpu[r]);
      rec.mem_peak_bytes = std::max(rec.mem_peak_bytes, peak[r]);
    }
    rec.cpu_s = cpu_sum;

    add_traffic(rec, result.traffic_summary().total_per_phase);
    rec.exact["summa.batches"] = static_cast<double>(head.batches);
    rec.exact["summa.final_batches"] = static_cast<double>(head.final_batches);
    rec.exact["summa.rebatch_events"] =
        static_cast<double>(head.rebatch_events);
    const double flops = static_cast<double>(head.symbolic.total_flops);
    rec.exact["kernels.flops"] = flops;
    rec.exact["kernels.nnz_c"] = static_cast<double>(got.nnz);
    rec.exact["vmpi.payload_copies"] =
        static_cast<double>(Payload::deep_copies() - copies0);

    add_steps(rec, report);
    derive_layer(rec, flops, static_cast<double>(got.nnz));
    rec.layer["vmpi.checksum_rejects"] =
        counter(report, "vmpi.checksum_rejects");
    rec.layer["summa.call_s"] =
        *std::max_element(summa_s.begin(), summa_s.end());
    rec.layer["grid.distribute_s"] =
        *std::max_element(dist_s.begin(), dist_s.end());
    rec.layer["rank.cpu_s.max"] = cpu_max;
    rec.layer["rank.wait_s.max"] = wait_max;
    rec.layer["rank.cpu_imbalance"] =
        cpu_sum > 0 ? cpu_max / (cpu_sum / kRanks) : 0.0;
    rec.layer["obs.report_s"] = report_s;
    last_ = std::move(result);
    return rec;
  }

  void write_program_trace(const std::string& path) const override {
    obs::write_chrome_trace(last_, path);
  }

 private:
  CscMat a_;
  int layers_;
  Bytes total_memory_;
  Fingerprint reference_;
  vmpi::RunResult last_;
};

/// Budget M that makes Eq. (2) choose `batches`: per-rank inputs plus
/// 1/(batches - 0.5) of the most loaded rank's unmerged output.
Bytes budget_for_batches(const CscMat& a, int layers, double batches,
                         Tracer& tracer) {
  Span span(tracer, "summa.symbolic3d", 0, 0);
  SymbolicResult sym;
  vmpi::run(kRanks, [&](vmpi::Comm& world) {
    Grid3D grid(world, layers);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SymbolicResult s = symbolic3d(grid, da.local, db.local, 0);
    if (world.rank() == 0) sym = std::move(s);
  });
  const double r = static_cast<double>(kBytesPerNonzero);
  const double share =
      r * static_cast<double>(sym.max_nnz_a + sym.max_nnz_b) +
      r * static_cast<double>(sym.max_nnz_c) / (batches - 0.5);
  return static_cast<Bytes>(share) * kRanks;
}

std::unique_ptr<Workload> setup_protein_membound(std::uint64_t seed,
                                                 Tracer& tracer) {
  // Isolates-s generator parameters. The family-size power law makes the
  // work swing between generator seeds (nnz(A) moved by 25% across four
  // seeds), so the dataset is fixed (Isolates-s's own seed) and --seed
  // draws the random symmetric relabeling that distributed SpGEMM codes
  // apply for load balance: it changes every rank's blocks, batch contents
  // and hash tables, but not the product's size.
  ProteinParams p;
  p.n = 24000;
  p.min_family = 8;
  p.max_family = 448;
  p.within_density = 0.15;
  p.cross_edges_per_node = 0.2;
  p.seed = 103;
  CscMat a;
  {
    Span s(tracer, "gen.protein", 0, 0);
    a = permute_symmetric(generate_protein_similarity(p).mat, seed);
  }
  const Bytes budget = budget_for_batches(a, 1, 4, tracer);
  return std::make_unique<DirectSpgemm>(std::move(a), 1, budget, tracer);
}

std::unique_ptr<Workload> setup_rmat_fiber(std::uint64_t seed,
                                           Tracer& tracer) {
  // Friendster-s, generator seed included. Different generator seeds
  // change the graph's skew and so the rank imbalance: the median job time
  // spanned 0.75-1.01 s over ten seeds whose flops were within 2% of each
  // other. So the graph is fixed and --seed draws a relabeling inside each
  // of the four layer slices: every layer keeps its vertex set (flops,
  // traffic and the skew across layers stay), while the order of rows,
  // columns and hash-table keys changes.
  const int layers = 4;
  RmatParams p;
  p.scale = 13;
  p.edge_factor = 7.0;
  p.seed = 105;
  CscMat a;
  {
    Span s(tracer, "gen.rmat", 0, 0);
    a = permute_symmetric(generate_rmat(p), seed, layers);
  }
  return std::make_unique<DirectSpgemm>(std::move(a), layers, 0, tracer);
}

// ---------------------------------------------------------------------------
// serve-mix: waves of small jobs through one svc::Server.
// ---------------------------------------------------------------------------

/// One job of the mix plus its serial reference.
struct MixJob {
  svc::JobSpec spec;
  bool checkpointed = false;
  Fingerprint product;  ///< kSpGemm
  double flops = 0.0;   ///< kSpGemm
  MclResult clusters;   ///< kMcl
  Index triangles = 0;  ///< kTriangleCount
};

class ServeMix final : public Workload {
 public:
  ServeMix(std::vector<MixJob> mix, std::string work_dir, Tracer& tracer)
      : mix_(std::move(mix)), work_dir_(std::move(work_dir)) {
    start_server(tracer);
  }

  const char* op_unit() const override { return "wave"; }

  /// The server keeps every finished job's record, gathered C included:
  /// about 20 MB a wave, so one server grew past 1.4 GB in a 30 s run and
  /// each wave faulted in fresh pages. Every kWavesPerServer waves it is
  /// replaced by a fresh, warmed-up one, outside the timed ops.
  void between_ops(Tracer& tracer) override {
    if (++waves_ == kWavesPerServer) start_server(tracer);
  }

  OpRecord run_op(Tracer& tracer, std::uint64_t op) override {
    OpRecord rec;
    const std::uint64_t copies0 = Payload::deep_copies();
    const std::uint64_t pool0 = server_->pool().jobs_run();
    const double cpu0 = clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const fs::path ckpt_root =
        fs::path(work_dir_) / ("ckpt-op" + std::to_string(op));
    std::vector<std::string> ids;
    std::vector<double> submit_s;
    std::map<std::string, obs::RunReport> reports;
    double drain_s = 0.0, report_s = 0.0;
    Span op_span(tracer, "op", op, 0);
    try {
      for (std::size_t i = 0; i < mix_.size(); ++i) {
        svc::JobSpec spec = mix_[i].spec;
        if (mix_[i].checkpointed)
          spec.ckpt_dir = (ckpt_root / ("job" + std::to_string(i))).string();
        Span s(tracer, "svc.submit", op, op_span.id());
        ids.push_back(server_->submit(std::move(spec)));
        submit_s.push_back(s.close());
      }
      Span drain(tracer, "svc.drain", op, op_span.id());
      server_->drain();
      drain_s = drain.close();
      Span s(tracer, "obs.build_report", op, op_span.id());
      for (const std::string& id : ids) {
        const svc::JobRecord* job = server_->find(id);
        if (job->state != svc::JobState::kDone) continue;
        obs::RunReport& report = reports[id];
        report = obs::build_report(job->run_result);
        (void)report.to_json().dump();
      }
      report_s = s.close();
    } catch (const std::exception& e) {
      rec.error = std::string("wave failed: ") + e.what();
    }
    rec.op_s = op_span.close();
    rec.cpu_s = clock_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    rec.jobs = static_cast<int>(ids.size());

    double done = 0, failed = 0, rejected = 0, flops = 0, nnz_c = 0;
    double batches = 0, final_batches = 0, rebatches = 0, rejects = 0;
    double iterations = 0;
    std::vector<double> exec_s;
    std::map<std::string, vmpi::PhaseTraffic> traffic;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const svc::JobRecord& job = *server_->find(ids[i]);
      const MixJob& want = mix_[i];
      if (job.state == svc::JobState::kRejected ||
          job.state == svc::JobState::kThrottled)
        ++rejected;
      else if (job.state != svc::JobState::kDone)
        ++failed;
      if (job.state != svc::JobState::kDone) {
        if (rec.error.empty())
          rec.error = ids[i] + " ended " + svc::to_string(job.state) + ": " +
                      job.reason;
        continue;
      }
      ++done;
      std::string why;
      switch (want.spec.op) {
        case svc::JobOp::kSpGemm: {
          Fingerprint got;
          got.add(job.c, 0, 0);
          why = compare(got, want.product);
          flops += want.flops;
          nnz_c += static_cast<double>(got.nnz);
          batches += static_cast<double>(job.batches);
          final_batches += static_cast<double>(job.final_batches);
          break;
        }
        case svc::JobOp::kMcl:
          why = compare_partitions(job.mcl.cluster_of,
                                   want.clusters.cluster_of);
          iterations += job.mcl.iterations;
          break;
        case svc::JobOp::kTriangleCount:
          if (job.triangles != want.triangles)
            why = "triangle count " + std::to_string(job.triangles) +
                  " != reference " + std::to_string(want.triangles);
          break;
      }
      if (!why.empty() && rec.error.empty()) rec.error = ids[i] + ": " + why;
      exec_s.push_back(job.run_result.wall_seconds);
      for (const auto& [phase, t] :
           job.run_result.traffic_summary().total_per_phase)
        traffic[phase] += t;
      for (const obs::Recorder& r : job.run_result.recorders)
        rec.mem_peak_bytes =
            std::max(rec.mem_peak_bytes, static_cast<double>(r.peak_bytes()));
      const obs::RunReport& report = reports[ids[i]];
      add_steps(rec, report);
      rebatches += counter(report, "summa.rebatch_events");
      rejects += counter(report, "vmpi.checksum_rejects");
    }

    add_traffic(rec, traffic);
    rec.exact["svc.jobs_done"] = done;
    rec.exact["svc.jobs_failed"] = failed;
    rec.exact["svc.jobs_rejected"] = rejected;
    rec.exact["summa.batches"] = batches;
    rec.exact["summa.final_batches"] = final_batches;
    rec.exact["summa.rebatch_events"] = rebatches;
    rec.exact["kernels.flops"] = flops;
    rec.exact["kernels.nnz_c"] = nnz_c;
    rec.exact["vmpi.payload_copies"] =
        static_cast<double>(Payload::deep_copies() - copies0);
    derive_layer(rec, flops, nnz_c);
    rec.layer["vmpi.checksum_rejects"] = rejects;
    rec.layer["svc.submit_s.p50"] = median(submit_s);
    rec.layer["svc.exec_s.p50"] = median(exec_s);
    rec.layer["svc.drain_s.p50"] = drain_s;
    rec.layer["pool.jobs_run"] =
        static_cast<double>(server_->pool().jobs_run() - pool0);
    rec.layer["mcl.iterations"] = iterations;
    rec.layer["obs.report_s"] = report_s;

    double ckpt_bytes = 0;
    std::error_code ec;
    if (fs::exists(ckpt_root, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(ckpt_root))
        if (entry.is_regular_file())
          ckpt_bytes += static_cast<double>(entry.file_size());
      fs::remove_all(ckpt_root, ec);
    }
    rec.layer["ckpt.bytes_written"] = ckpt_bytes;
    for (std::size_t i = 0; i < ids.size(); ++i)
      if (mix_[i].checkpointed) last_job_ = ids[i];
    return rec;
  }

  void start_server(Tracer& tracer) {
    server_.reset();
    svc::ServerOptions opts;
    opts.pool_ranks = kRanks;
    opts.concurrency = 2;
    {
      Span s(tracer, "svc.server_start", 0, 0);
      server_ = std::make_unique<svc::Server>(opts);
    }
    (void)run_op(tracer, 0);  // warm-up wave
    waves_ = 0;
  }

  /// Writes the last budgeted, checkpointed SpGEMM job's trace.
  void write_program_trace(const std::string& path) const override {
    const svc::JobRecord* job = server_->find(last_job_);
    if (job != nullptr) obs::write_chrome_trace(job->run_result, path);
  }

 private:
  std::vector<MixJob> mix_;
  std::string work_dir_;
  static constexpr int kWavesPerServer = 8;
  std::unique_ptr<svc::Server> server_;
  int waves_ = 0;
  std::string last_job_;
};

/// Protein network with every family the same size, so the job's work
/// barely moves with the seed.
svc::MatrixSource uniform_protein(Index n, Index family, double density,
                                  double cross, std::uint64_t seed) {
  svc::MatrixSource src = svc::MatrixSource::protein_network(n, seed);
  src.protein.min_family = family;
  src.protein.max_family = family;
  src.protein.within_density = density;
  src.protein.cross_edges_per_node = cross;
  return src;
}

/// Declared budget for a service SpGEMM job on a 2x2x1 grid: each rank's
/// share holds its inputs plus 1.15x its block of the merged product (the
/// service keeps and gathers C, charging the concatenated output), so the
/// job completes while Eq. (2), which sizes the larger unmerged output,
/// still picks b > 1. Throws if it does not.
Bytes budget_holding_output(const svc::JobSpec& spec, const CscMat& a,
                            const CscMat& c) {
  Index max_block = 0;
  for (Index i = 0; i < 2; ++i)
    for (Index j = 0; j < 2; ++j) {
      const CscMat block = extract_block(
          c, part_low(i, 2, c.nrows()), part_low(i + 1, 2, c.nrows()),
          part_low(j, 2, c.ncols()), part_low(j + 1, 2, c.ncols()));
      max_block = std::max(max_block, block.nnz());
    }
  const obs::JobAdmission unlimited =
      svc::estimate_admission(spec, a, a).admission;
  const double share =
      static_cast<double>(unlimited.input_bytes) +
      1.15 * static_cast<double>(kBytesPerNonzero) *
          static_cast<double>(max_block);
  svc::JobSpec budgeted = spec;
  budgeted.memory_bytes = static_cast<Bytes>(share) * kRanks;
  const obs::JobAdmission verdict =
      svc::estimate_admission(budgeted, a, a).admission;
  if (!verdict.fits || verdict.batches < 2)
    throw std::runtime_error("serve-mix: budgeted job admits at b = " +
                             std::to_string(verdict.batches));
  return budgeted.memory_bytes;
}

std::unique_ptr<Workload> setup_serve_mix(std::uint64_t seed,
                                          const std::string& work_dir,
                                          Tracer& tracer) {
  std::vector<MixJob> mix;
  std::uint64_t salt = 0;
  const auto add = [&](svc::JobSpec spec) {
    spec.tenant = "bench";
    MixJob job;
    job.spec = std::move(spec);
    mix.push_back(std::move(job));
  };
  // Hyper-sparse SpGEMM (1.5 nnz/col) with the sparse A exchange, 2x2x1.
  for (int i = 0; i < 6; ++i) {
    svc::JobSpec s;
    s.op = svc::JobOp::kSpGemm;
    s.a = svc::MatrixSource::er_square(12000, 1.5, job_seed(seed, ++salt));
    s.ranks = kRanks;
    s.layers = 1;
    s.sparse_comm = true;
    add(std::move(s));
  }
  // SpGEMM under a declared budget that makes admission pick b > 1, with
  // batch-boundary checkpoints. A dense-output product: the two SUMMA
  // stages overlap heavily, so the unmerged output (what Eq. (2) sizes)
  // is well above the merged output the service keeps and gathers.
  for (int i = 0; i < 2; ++i) {
    svc::JobSpec s;
    s.op = svc::JobOp::kSpGemm;
    s.a = svc::MatrixSource::er_square(600, 40.0, job_seed(seed, ++salt));
    s.ranks = kRanks;
    s.layers = 1;
    add(std::move(s));
    mix.back().checkpointed = true;
  }
  // MCL on a protein network, 1x1x2.
  for (int i = 0; i < 2; ++i) {
    svc::JobSpec s;
    s.op = svc::JobOp::kMcl;
    s.a = uniform_protein(600, 20, 0.6, 0.05, job_seed(seed, ++salt));
    s.ranks = 2;
    s.layers = 2;
    add(std::move(s));
  }
  // Triangle counting on one rank.
  for (int i = 0; i < 2; ++i) {
    svc::JobSpec s;
    s.op = svc::JobOp::kTriangleCount;
    s.a = svc::MatrixSource::rmat_graph(11, 8.0, job_seed(seed, ++salt));
    s.ranks = 1;
    s.layers = 1;
    add(std::move(s));
  }

  for (MixJob& job : mix) {
    CscMat a;
    {
      Span s(tracer, "gen.materialize", 0, 0);
      a = job.spec.a.materialize();
    }
    Span s(tracer, std::string("reference.") + svc::to_string(job.spec.op),
           0, 0);
    switch (job.spec.op) {
      case svc::JobOp::kSpGemm: {
        const CscMat c = reference_multiply<PlusTimes>(a, a);
        job.product.add(c, 0, 0);
        job.flops = static_cast<double>(multiply_flops(a, a));
        if (job.checkpointed)
          job.spec.memory_bytes = budget_holding_output(job.spec, a, c);
        break;
      }
      case svc::JobOp::kMcl:
        job.clusters = mcl_cluster_serial(a, job.spec.mcl);
        break;
      case svc::JobOp::kTriangleCount:
        job.triangles = count_triangles_serial(a);
        break;
    }
  }
  return std::make_unique<ServeMix>(std::move(mix), work_dir, tracer);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"protein-membound",
                                                 "rmat-fiber", "serve-mix"};
  return names;
}

std::unique_ptr<Workload> setup_workload(const std::string& name,
                                         std::uint64_t seed,
                                         const std::string& work_dir,
                                         Tracer& tracer) {
  if (name == "protein-membound") return setup_protein_membound(seed, tracer);
  if (name == "rmat-fiber") return setup_rmat_fiber(seed, tracer);
  if (name == "serve-mix") return setup_serve_mix(seed, work_dir, tracer);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace e2e
