// SvcSoak: the ISSUE's acceptance scenario. A 10-job mixed-tenant queue
// (SpGEMM + MCL + triangle count, one tenant injecting crashes) drains on
// one resident rank pool; every surviving job's result must be bit-identical
// (tolerance 0.0) to its standalone vmpi::run equivalent, the deterministic
// per-job reports must be byte-identical across two independent servers fed
// the same specs, and each tenant's billed totals must reconcile with the
// sum of its jobs' billing (Table II logical volumes).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "apps/triangle.hpp"
#include "grid/dist.hpp"
#include "kernels/semiring.hpp"
#include "summa/batched.hpp"
#include "svc/server.hpp"

namespace casp::svc {
namespace {

std::vector<JobSpec> soak_specs() {
  std::vector<JobSpec> specs;
  auto add = [&](JobSpec s) {
    s.job_id = "soak-" + std::to_string(specs.size());
    specs.push_back(std::move(s));
  };

  // alice: four SpGEMM variants.
  for (int i = 0; i < 4; ++i) {
    JobSpec s;
    s.tenant = "alice";
    s.op = JobOp::kSpGemm;
    s.a = MatrixSource::er_square(56, 3.0, 100 + static_cast<unsigned>(i));
    s.ranks = 4;
    s.priority = i % 2;
    if (i == 1) s.aat = true;
    if (i == 2) s.kernel = Pipeline::kHybrid;
    if (i == 3) {
      s.memory_bytes = Bytes{16} << 20;
      s.force_batches = 2;
    }
    add(std::move(s));
  }
  // bob: three MCL runs and a triangle count.
  for (int i = 0; i < 3; ++i) {
    JobSpec s;
    s.tenant = "bob";
    s.op = JobOp::kMcl;
    s.a = MatrixSource::protein_network(40, 200 + static_cast<unsigned>(i));
    s.ranks = 4;
    s.priority = 2;
    s.mcl.max_iterations = 5;
    add(std::move(s));
  }
  {
    JobSpec s;
    s.tenant = "bob";
    s.op = JobOp::kTriangleCount;
    s.a = MatrixSource::rmat_graph(6, 4.0, 300);
    s.ranks = 4;
    add(std::move(s));
  }
  // chaos: one supervised job that crashes and recovers, one unsupervised
  // job that crashes and fails. Neither may take the pool down.
  {
    JobSpec s;
    s.tenant = "chaos";
    s.op = JobOp::kSpGemm;
    s.a = MatrixSource::er_square(48, 3.0, 400);
    s.ranks = 4;
    s.fault_spec = "seed=1;crash_rank=2;crash_op=15";
    s.max_restarts = 2;
    add(std::move(s));
  }
  {
    JobSpec s;
    s.tenant = "chaos";
    s.op = JobOp::kSpGemm;
    s.a = MatrixSource::er_square(48, 3.0, 401);
    s.ranks = 4;
    s.fault_spec = "seed=2;crash_rank=1;crash_op=10";
    add(std::move(s));
  }
  EXPECT_EQ(specs.size(), 10u);
  return specs;
}

/// Fault-free standalone equivalent of a service SpGEMM job: plain
/// vmpi::run with the exact option views the service derives.
CscMat standalone_spgemm(const JobSpec& spec, const CscMat& a,
                         const CscMat& b) {
  CscMat out;
  vmpi::RunOptions run_opts;
  run_opts.faults = vmpi::FaultPlan{};
  vmpi::run(
      spec.ranks,
      [&](vmpi::Comm& world) {
        MemoryTracker tracker(
            spec.memory_bytes == 0
                ? 0
                : std::max<Bytes>(1, spec.memory_bytes /
                                         static_cast<Bytes>(world.size())));
        vmpi::arm_alloc_faults(world, tracker);
        SummaOptions opts = spec.summa_options();
        if (spec.memory_bytes != 0) opts.memory = &tracker;
        Grid3D grid(world, spec.layers);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, b);
        BatchedResult r = batched_summa3d<PlusTimes>(
            grid, da, db, spec.memory_bytes, opts, BatchCallback{},
            /*keep_output=*/true);
        CscMat full = gather_dist(grid, r.c);
        if (world.rank() == 0) out = std::move(full);
      },
      run_opts);
  return out;
}

MclResult standalone_mcl(const JobSpec& spec, const CscMat& a) {
  MclResult out;
  vmpi::RunOptions run_opts;
  run_opts.faults = vmpi::FaultPlan{};
  vmpi::run(
      spec.ranks,
      [&](vmpi::Comm& world) {
        Grid3D grid(world, spec.layers);
        MclResult r = mcl_cluster_distributed(grid, a, spec.mcl,
                                              spec.memory_bytes,
                                              spec.summa_options());
        if (world.rank() == 0) out = std::move(r);
      },
      run_opts);
  return out;
}

Index standalone_triangles(const JobSpec& spec, const CscMat& a) {
  Index out = 0;
  vmpi::RunOptions run_opts;
  run_opts.faults = vmpi::FaultPlan{};
  vmpi::run(
      spec.ranks,
      [&](vmpi::Comm& world) {
        Grid3D grid(world, spec.layers);
        const Index t = count_triangles_distributed(
            grid, a, spec.memory_bytes, spec.summa_options());
        if (world.rank() == 0) out = t;
      },
      run_opts);
  return out;
}

TEST(SvcSoak, MixedTenantQueueMatchesStandaloneBitForBit) {
  Server server(ServerOptions{});
  std::vector<std::string> ids;
  for (JobSpec spec : soak_specs()) ids.push_back(server.submit(spec));
  server.drain();

  int done = 0, failed = 0;
  for (const std::string& id : ids) {
    const JobRecord* job = server.find(id);
    ASSERT_NE(job, nullptr);
    ASSERT_TRUE(job->terminal()) << id << " not terminal";
    if (job->state == JobState::kFailed) {
      ++failed;
      continue;
    }
    ASSERT_EQ(job->state, JobState::kDone) << id << ": " << job->reason;
    ++done;
    switch (job->spec.op) {
      case JobOp::kSpGemm: {
        const CscMat expect =
            standalone_spgemm(job->spec, job->in_a, job->in_b);
        EXPECT_TRUE(job->c == expect) << id << ": product diverged";
        break;
      }
      case JobOp::kMcl: {
        const MclResult expect = standalone_mcl(job->spec, job->in_a);
        EXPECT_EQ(job->mcl.cluster_of, expect.cluster_of) << id;
        EXPECT_EQ(job->mcl.num_clusters, expect.num_clusters) << id;
        EXPECT_EQ(job->mcl.iterations, expect.iterations) << id;
        break;
      }
      case JobOp::kTriangleCount:
        // A triangle job holds L and U, so count from the spec's graph.
        EXPECT_EQ(job->triangles,
                  standalone_triangles(job->spec, job->spec.a.materialize()))
            << id;
        break;
    }
  }
  // Exactly one job (the unsupervised chaos crash) may fail, and it fails
  // by its injected crash.
  EXPECT_EQ(done, 9);
  EXPECT_EQ(failed, 1);
  EXPECT_NE(server.find("soak-9")->reason.find("rank_crash"),
            std::string::npos)
      << server.find("soak-9")->reason;

  // The supervised chaos job recovered on the same pool.
  const JobRecord* recovered = server.find("soak-8");
  EXPECT_EQ(recovered->state, JobState::kDone);
  EXPECT_GE(recovered->report.billing.restarts, 1u);
}

TEST(SvcSoak, DeterministicReportsAreByteIdenticalAcrossServers) {
  std::string dumps[2];
  for (std::string& dump : dumps) {
    Server server(ServerOptions{});
    for (JobSpec spec : soak_specs()) server.submit(spec);
    server.drain();
    dump = server.job_reports_json(/*deterministic=*/true).dump();
  }
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(SvcSoak, TenantBillingReconcilesWithPerJobReports) {
  Server server(ServerOptions{});
  std::vector<std::string> ids;
  for (JobSpec spec : soak_specs()) ids.push_back(server.submit(spec));
  server.drain();

  std::map<std::string, Bytes> logical, shipped;
  std::map<std::string, std::uint64_t> messages;
  for (const std::string& id : ids) {
    const JobRecord* job = server.find(id);
    logical[job->spec.tenant] += job->report.billing.logical_bytes;
    shipped[job->spec.tenant] += job->report.billing.shipped_bytes;
    messages[job->spec.tenant] += job->report.billing.messages;
  }
  for (const std::string tenant : {"alice", "bob", "chaos"}) {
    const obs::Json rep = server.tenant_report(tenant);
    const obs::Json* traffic = rep.find("traffic");
    ASSERT_NE(traffic, nullptr) << tenant;
    EXPECT_EQ(traffic->find("logical_bytes")->as_int(),
              static_cast<std::int64_t>(logical[tenant]))
        << tenant;
    EXPECT_EQ(traffic->find("shipped_bytes")->as_int(),
              static_cast<std::int64_t>(shipped[tenant]))
        << tenant;
    EXPECT_EQ(traffic->find("messages")->as_int(),
              static_cast<std::int64_t>(messages[tenant]))
        << tenant;
    // Table II reconciliation: the per-phase decomposition sums back to the
    // tenant's logical total.
    const obs::Json* by_phase = traffic->find("logical_bytes_by_phase");
    ASSERT_NE(by_phase, nullptr) << tenant;
    std::int64_t phase_sum = 0;
    for (const auto& [phase, bytes] : by_phase->members())
      phase_sum += bytes.as_int();
    EXPECT_EQ(phase_sum, traffic->find("logical_bytes")->as_int()) << tenant;
    EXPECT_EQ(server.tenant(tenant).traffic_billed(), logical[tenant])
        << tenant;
  }
}

}  // namespace
}  // namespace casp::svc
