// svc::Server: admission control (Eq. (2)), per-tenant quotas, priority
// scheduling with cancellation, and crash containment on the resident pool.
//
// The FaultSvc suite reads CASP_FAULT_SEED (default 1) so check.sh stage
// (f) sweeps the injected-crash scenarios over several seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/triangle.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "grid/dist.hpp"
#include "summa/batched.hpp"
#include "summa/symbolic3d.hpp"
#include "svc/admission.hpp"
#include "svc/server.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp::svc {
namespace {

std::uint64_t fault_seed() {
  const char* env = std::getenv("CASP_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

JobSpec small_spgemm(std::string tenant, std::uint64_t seed = 7) {
  JobSpec s;
  s.tenant = std::move(tenant);
  s.op = JobOp::kSpGemm;
  s.a = MatrixSource::er_square(48, 3.0, seed);
  s.ranks = 4;
  s.layers = 1;
  return s;
}

/// The job's last attempt ran no Symbolic3D of its own: its report says
/// the result was carried, and no Symbolic phase or traffic appears.
void expect_symbolic_carried(const JobRecord& job) {
  ASSERT_TRUE(job.report.run.has_value());
  const auto& counters = job.report.run->counters;
  ASSERT_EQ(counters.count("summa.symbolic_carried"), 1u);
  EXPECT_EQ(counters.at("summa.symbolic_carried"), 1);
  EXPECT_EQ(job.report.run->phases.count(steps::kSymbolic), 0u);
  EXPECT_EQ(job.run_result.traffic_summary().total_per_phase.count(
                steps::kSymbolic),
            0u);
}

TEST(Server, OverBudgetJobRejectedAtSubmitNamingEq2) {
  Server server(ServerOptions{});
  JobSpec spec = small_spgemm("alice");
  // 4 KiB aggregate = 1 KiB per process: far below the r*(maxA+maxB) input
  // footprint, so Eq. (2)'s denominator is non-positive and no batch count
  // can make the job fit. Must be refused before it ever reaches the pool.
  spec.memory_bytes = 4096;
  const std::string id = server.submit(std::move(spec));
  const JobRecord* job = server.find(id);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, JobState::kRejected);
  EXPECT_FALSE(job->admission.fits);
  // The structured reason names the Eq. (2) estimate that refused the job.
  EXPECT_NE(job->reason.find("Eq. (2)"), std::string::npos) << job->reason;
  EXPECT_NE(job->reason.find("r=24"), std::string::npos) << job->reason;
  EXPECT_FALSE(job->holds_reservation);
  // A rejected job never reserves tenant memory.
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);
}

TEST(Server, AdmissionEstimatesBatchesForFittingJobs) {
  Server server(ServerOptions{});
  JobSpec spec = small_spgemm("alice");
  spec.memory_bytes = Bytes{64} << 20;
  const std::string id = server.submit(std::move(spec));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_TRUE(job.admission.fits);
  EXPECT_GE(job.admission.batches, 1);
  EXPECT_GT(job.admission.max_nnz_c, 0);
  EXPECT_EQ(job.admission.reserved_bytes, Bytes{64} << 20);
  // Terminal states release the reservation.
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);
  EXPECT_GT(server.tenant("alice").peak_reserved(), 0u);
}

TEST(Server, AdmissionSizesTheBalancedLayoutALayeredJobRunsOn) {
  // A skewed 1x1x4 product: batched_summa3d cuts the inner dimension into
  // equal-flops layer slices, and admission must apply Eq. (2) to that
  // layout, not to the part_low one, or its b is not the one that runs.
  JobSpec spec = small_spgemm("alice");
  spec.a = MatrixSource::rmat_graph(9, 8.0, 11);
  spec.layers = 4;
  const CscMat in = spec.a.materialize();
  SymbolicResult uniform, balanced;
  vmpi::run(spec.ranks, [&](vmpi::Comm& world) {
    Grid3D grid(world, spec.layers);
    const DistMat3D da = distribute_a_style(grid, in);
    const DistMat3D db = distribute_b_style(grid, in);
    SymbolicResult u = symbolic3d(grid, da.local, db.local, 0);
    const auto [ra, rb] = rebalance_inner(grid, da, db);
    SymbolicResult b = symbolic3d(grid, ra.local, rb.local, 0);
    if (world.rank() == 0) {
      uniform = std::move(u);
      balanced = std::move(b);
    }
  });
  // Eq. (2) gives b = 2 on the balanced layout; the part_low layout's
  // heavy layer would need more (or would not fit at all).
  const Bytes r = kBytesPerNonzero;
  const Bytes share =
      r * static_cast<Bytes>(balanced.max_nnz_a + balanced.max_nnz_b) +
      r * static_cast<Bytes>(balanced.max_nnz_c) * 3 / 5;
  const Bytes uniform_inputs =
      r * static_cast<Bytes>(uniform.max_nnz_a + uniform.max_nnz_b);
  ASSERT_TRUE(share <= uniform_inputs ||
              r * static_cast<Bytes>(uniform.max_nnz_c) >
                  2 * (share - uniform_inputs));
  spec.memory_bytes = 4 * share;
  Server server(ServerOptions{});
  const JobRecord& job = server.wait(server.submit(std::move(spec)));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_EQ(job.admission.batches, 2);
  EXPECT_EQ(job.admission.batches, job.batches);
}

TEST(Server, Eq2DividesTheBudgetByPAsARealNumber) {
  // maxnnzA = maxnnzB = 100, p = 4, r = 24: the inputs take 4800 B.
  const double inputs = 24.0 * 200;
  // M = 19 299: M/p = 4824.75 B leaves 24.75 B, so b = 792 / 24.75 = 32.
  // An integer share (4824 B) would leave 24 B and size b = 33.
  EXPECT_EQ(eq2_batches(19299, 4, inputs, 24.0 * 33), 32);
  // M = 19 203: M/p = 4800.75 B leaves 0.75 B, so b = 120 / 0.75 = 160.
  // An integer share (4800 B) would leave nothing and reject the job.
  EXPECT_EQ(eq2_batches(19203, 4, inputs, 24.0 * 5), 160);
  EXPECT_EQ(eq2_batches(19200, 4, inputs, 24.0 * 5), 0);
  EXPECT_EQ(eq2_batches(0, 4, inputs, 24.0 * 5), 1);  // unlimited
}

TEST(Server, AdmissionSizesTheRunsBatchesWhenMIsNotAMultipleOfP) {
  JobSpec spec = small_spgemm("alice");
  const CscMat in = spec.a.materialize();
  const obs::JobAdmission maxima = estimate_admission(spec, in, in).admission;
  const Index r = static_cast<Index>(kBytesPerNonzero);
  const Index p = spec.ranks;
  const Index inputs = r * (maxima.max_nnz_a + maxima.max_nnz_b);
  const Index unmerged = r * maxima.max_nnz_c;
  // The first budget with M % p != 0 where an integer share floor(M/p)
  // would size a different b than the real-valued M/p does.
  Bytes budget = 0;
  for (Index m = p * inputs + 1; m < p * (inputs + unmerged) && budget == 0;
       ++m) {
    const Index share = m / p;
    const Index integer_b =
        share <= inputs ? 0 : ceil_div(unmerged, share - inputs);
    const Index b = eq2_batches(static_cast<Bytes>(m), p,
                                static_cast<double>(inputs),
                                static_cast<double>(unmerged));
    if (m % p != 0 && b >= 2 && b <= 8 && b != integer_b)
      budget = static_cast<Bytes>(m);
  }
  ASSERT_NE(budget, 0u);

  spec.memory_bytes = budget;
  const AdmissionEstimate est = estimate_admission(spec, in, in);
  ASSERT_TRUE(est.fits()) << est.reason;
  Index run_batches = 0;
  vmpi::run(spec.ranks, [&](vmpi::Comm& world) {
    Grid3D grid(world, spec.layers);
    const DistMat3D da = distribute_a_style(grid, in);
    const DistMat3D db = distribute_b_style(grid, in);
    const BatchedResult res = batched_summa3d<PlusTimes>(
        grid, da, db, budget, spec.summa_options());
    if (world.rank() == 0) run_batches = res.batches;
  });
  EXPECT_EQ(est.admission.batches, run_batches);
}

TEST(Server, TriangleAdmissionSizesTheLUProductTheJobRuns) {
  // A triangle count multiplies L*U masked by L, not A*A, so Eq. (2) must
  // be applied to the masked L*U's maxima: then admission's b is the b the
  // run picks.
  JobSpec spec;
  spec.tenant = "alice";
  spec.op = JobOp::kTriangleCount;
  spec.a = MatrixSource::rmat_graph(8, 8.0, 21);
  spec.ranks = 4;
  const CscMat adjacency = spec.a.materialize();
  const TriangleOperands ops = triangle_operands(adjacency);
  const obs::JobAdmission lu =
      estimate_admission(spec, ops.lower, ops.upper).admission;
  // A per-process share that holds L*U's inputs plus a third of its masked
  // unmerged output: b = 3.
  const Bytes r = kBytesPerNonzero;
  const Bytes inputs = r * static_cast<Bytes>(lu.max_nnz_a + lu.max_nnz_b);
  const Bytes unmerged = r * static_cast<Bytes>(lu.max_nnz_c);
  spec.memory_bytes = static_cast<Bytes>(spec.ranks) * (inputs + unmerged / 3 + 1);
  const AdmissionEstimate est =
      estimate_admission(spec, ops.lower, ops.upper);
  ASSERT_TRUE(est.fits()) << est.reason;
  ASSERT_EQ(est.admission.batches, 3);
  // Sizing A*A (masked by A, as a triangle job's admission masks its
  // first operand) instead gives another answer at this budget (A holds
  // both triangles), so the check below tells the two apart.
  const obs::JobAdmission aa =
      estimate_admission(spec, adjacency, adjacency).admission;
  ASSERT_TRUE(!aa.fits || aa.batches != est.admission.batches);

  Server server(ServerOptions{});
  const JobRecord& job = server.wait(server.submit(spec));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_EQ(job.admission.batches, est.admission.batches);
  const auto& counters = job.run_result.recorders.at(0).counters();
  ASSERT_EQ(counters.count("batches"), 1u);
  EXPECT_EQ(counters.at("batches"), job.admission.batches);
  EXPECT_EQ(job.triangles, count_triangles_serial(adjacency));
  // The run reused admission's Symbolic3D of the masked L*U instead of
  // repeating it.
  expect_symbolic_carried(job);
}

TEST(Server, BudgetedSpGemmRunsOnAdmissionsSymbolic3D) {
  JobSpec spec = small_spgemm("alice");
  spec.a = MatrixSource::rmat_graph(8, 8.0, 21);
  const CscMat in = spec.a.materialize();
  // The largest budget that admits b = 2: a share of the inputs plus just
  // under the unmerged output, which leaves room for the kept C.
  const obs::JobAdmission max = estimate_admission(spec, in, in).admission;
  const Bytes r = kBytesPerNonzero;
  spec.memory_bytes =
      static_cast<Bytes>(spec.ranks) *
      (r * static_cast<Bytes>(max.max_nnz_a + max.max_nnz_b + max.max_nnz_c) -
       1);
  Server server(ServerOptions{});
  const JobRecord& job = server.wait(server.submit(spec));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_EQ(job.admission.batches, 2);
  EXPECT_EQ(job.batches, job.admission.batches);
  expect_symbolic_carried(job);

  // The standalone run computes its own Symbolic3D, picks the same b and
  // gives the same bits.
  CscMat expect;
  Index expect_batches = 0;
  vmpi::run(spec.ranks, [&](vmpi::Comm& world) {
    MemoryTracker tracker(spec.memory_bytes /
                          static_cast<Bytes>(world.size()));
    SummaOptions opts = spec.summa_options();
    opts.memory = &tracker;
    Grid3D grid(world, spec.layers);
    const BatchedResult res = batched_summa3d<PlusTimes>(
        grid, distribute_a_style(grid, in), distribute_b_style(grid, in),
        spec.memory_bytes, opts);
    CscMat c = gather_dist(grid, res.c);
    if (world.rank() == 0) {
      expect = std::move(c);
      expect_batches = res.batches;
    }
  });
  EXPECT_EQ(job.batches, expect_batches);
  EXPECT_TRUE(job.c == expect) << "the carried run's C diverged";
}

TEST(Server, JobAdmittedAtThreeBatchesKeepsNoConcatenatedOutput) {
  // Eq. (2) sizes the inputs plus one batch of unmerged output, not C.
  // Under a budget that admits b = 3 on this product, a rank that also
  // concatenated its whole block of C would overrun; the service keeps
  // each batch piece where the callback hands it over and gathers those.
  JobSpec spec = small_spgemm("alice");
  spec.a = MatrixSource::rmat_graph(8, 8.0, 21);
  const CscMat in = spec.a.materialize();
  const obs::JobAdmission max = estimate_admission(spec, in, in).admission;
  const Bytes r = kBytesPerNonzero;
  spec.memory_bytes =
      static_cast<Bytes>(spec.ranks) *
      (r * static_cast<Bytes>(max.max_nnz_a + max.max_nnz_b) +
       r * static_cast<Bytes>(max.max_nnz_c) / 2 - 1);
  ASSERT_EQ(estimate_admission(spec, in, in).admission.batches, 3);

  // Kept and concatenated, the same budget fails after the batches ran.
  vmpi::RunOptions capture;
  capture.faults = vmpi::FaultPlan{};
  capture.capture_failure = true;
  const vmpi::RunResult kept = vmpi::run(
      spec.ranks,
      [&](vmpi::Comm& world) {
        MemoryTracker tracker(spec.memory_bytes /
                              static_cast<Bytes>(world.size()));
        SummaOptions opts = spec.summa_options();
        opts.memory = &tracker;
        Grid3D grid(world, spec.layers);
        (void)batched_summa3d<PlusTimes>(
            grid, distribute_a_style(grid, in), distribute_b_style(grid, in),
            spec.memory_bytes, opts);
      },
      capture);
  ASSERT_TRUE(kept.failed());
  EXPECT_EQ(kept.failure->kind, "memory_budget");

  Server server(ServerOptions{});
  const JobRecord& job = server.wait(server.submit(spec));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_EQ(job.batches, 3);
  EXPECT_EQ(job.final_batches, 3);

  // The standalone run at b = 3 (no budget, so it may keep C) gives the
  // same bits.
  CscMat expect;
  vmpi::run(spec.ranks, [&](vmpi::Comm& world) {
    SummaOptions opts = spec.summa_options();
    opts.force_batches = 3;
    Grid3D grid(world, spec.layers);
    const BatchedResult res = batched_summa3d<PlusTimes>(
        grid, distribute_a_style(grid, in), distribute_b_style(grid, in), 0,
        opts);
    CscMat c = gather_dist(grid, res.c);
    if (world.rank() == 0) expect = std::move(c);
  });
  EXPECT_TRUE(job.c == expect) << "the service's C diverged";
}

TEST(Server, ShrunkElasticJobRunsOnTheEstimateMadeForItsNewGrid) {
  // A 9-rank elastic job loses a rank for good and shrinks to 4 x 1. The
  // budget sizes a different b on the two grids, so the shrunk run's b
  // shows which estimate it used: the one reshape made for 4 x 1.
  JobSpec spec;
  spec.tenant = "alice";
  spec.op = JobOp::kSpGemm;
  spec.a = MatrixSource::rmat_graph(8, 8.0, 21);
  spec.a.rmat.random_values = false;  // integer sums: exact on any grid
  spec.ranks = 9;
  spec.elastic = true;
  spec.ckpt_dir = ::testing::TempDir() + "/casp_server_shrunk_estimate";
  std::filesystem::remove_all(spec.ckpt_dir);
  const CscMat in = spec.a.materialize();
  JobSpec shrunk = spec;
  shrunk.ranks = 4;
  // On 4 ranks, a share of the inputs plus 4/5 of the unmerged output:
  // b = 2, with room left for the kept C.
  const obs::JobAdmission max4 = estimate_admission(shrunk, in, in).admission;
  const Bytes r = kBytesPerNonzero;
  spec.memory_bytes =
      4 * (r * static_cast<Bytes>(max4.max_nnz_a + max4.max_nnz_b) +
           r * static_cast<Bytes>(max4.max_nnz_c) * 4 / 5);
  shrunk.memory_bytes = spec.memory_bytes;
  const AdmissionEstimate on4 = estimate_admission(shrunk, in, in);
  ASSERT_TRUE(on4.fits()) << on4.reason;
  ASSERT_EQ(on4.admission.batches, 2);

  ServerOptions opts;
  opts.pool_ranks = 9;
  Server server(opts);
  JobSpec reference = spec;  // unlimited: C does not depend on b
  reference.job_id = "reference";
  reference.elastic = false;
  reference.ckpt_dir.clear();
  reference.memory_bytes = 0;
  const CscMat expect = server.wait(server.submit(reference)).c;

  spec.fault_spec = "seed=1;perm_crash_rank=4;perm_crash_op=12";
  const JobRecord& job = server.wait(server.submit(spec));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  ASSERT_TRUE(job.report.run->recovery.has_value());
  EXPECT_EQ(job.report.run->recovery->degraded_to_ranks, 4);
  EXPECT_NE(job.admission.batches, on4.admission.batches);
  EXPECT_EQ(job.batches, on4.admission.batches);
  expect_symbolic_carried(job);
  casp::testing::expect_mat_near(job.c, expect, 0.0);
  std::filesystem::remove_all(spec.ckpt_dir);
}

TEST(Server, MemoryQuotaRejectsOversizedReservationOutright) {
  ServerOptions opts;
  opts.quotas["alice"].memory_bytes = 1 << 20;
  Server server(opts);
  JobSpec spec = small_spgemm("alice");
  spec.memory_bytes = Bytes{8} << 20;  // declared budget > tenant quota
  const std::string id = server.submit(std::move(spec));
  const JobRecord* job = server.find(id);
  EXPECT_EQ(job->state, JobState::kRejected);
  EXPECT_NE(job->reason.find("memory quota"), std::string::npos)
      << job->reason;
}

TEST(Server, TrafficQuotaThrottlesOneTenantWhileAnotherProceeds) {
  ServerOptions opts;
  opts.quotas["noisy"].traffic_bytes = 1;  // exhausted by any real job
  Server server(opts);

  // Both noisy jobs queue before anything runs: billing happens at
  // execution, so the second must be throttled by the scheduler's re-check,
  // not at submit.
  const std::string n1 = server.submit(small_spgemm("noisy", 7));
  const std::string n2 = server.submit(small_spgemm("noisy", 8));
  const std::string q1 = server.submit(small_spgemm("quiet", 9));
  server.drain();

  EXPECT_EQ(server.find(n1)->state, JobState::kDone)
      << server.find(n1)->reason;
  EXPECT_EQ(server.find(n2)->state, JobState::kThrottled);
  EXPECT_NE(server.find(n2)->reason.find("traffic quota"), std::string::npos);
  EXPECT_EQ(server.find(q1)->state, JobState::kDone)
      << server.find(q1)->reason;

  // Now that the ledger shows the overdraft, later submits refuse upfront.
  const std::string n3 = server.submit(small_spgemm("noisy", 10));
  EXPECT_EQ(server.find(n3)->state, JobState::kThrottled);
  EXPECT_TRUE(server.tenant("noisy").traffic_exhausted());
  EXPECT_FALSE(server.tenant("quiet").traffic_exhausted());
}

TEST(Server, CancelledJobReleasesItsReservation) {
  Server server(ServerOptions{});
  JobSpec first = small_spgemm("alice", 7);
  first.memory_bytes = Bytes{32} << 20;
  JobSpec second = small_spgemm("alice", 8);
  second.memory_bytes = Bytes{16} << 20;
  const std::string id1 = server.submit(std::move(first));
  const std::string id2 = server.submit(std::move(second));
  EXPECT_EQ(server.tenant("alice").reserved(), Bytes{48} << 20);

  EXPECT_TRUE(server.cancel(id2));
  EXPECT_EQ(server.find(id2)->state, JobState::kCancelled);
  EXPECT_EQ(server.tenant("alice").reserved(), Bytes{32} << 20);
  EXPECT_FALSE(server.cancel(id2));  // already terminal

  const JobRecord& job1 = server.wait(id1);
  EXPECT_EQ(job1.state, JobState::kDone) << job1.reason;
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);
  EXPECT_FALSE(server.cancel(id1));  // ran to completion, nothing to cancel
}

TEST(Server, PrioritySchedulingRunsHigherFirstFifoWithin) {
  Server server(ServerOptions{});
  const std::string low = server.submit(small_spgemm("t", 1));
  JobSpec hi = small_spgemm("t", 2);
  hi.priority = 5;
  const std::string high = server.submit(std::move(hi));
  JobSpec hi2 = small_spgemm("t", 3);
  hi2.priority = 5;
  const std::string high2 = server.submit(std::move(hi2));

  // Waiting on the low-priority job must drain both higher ones first —
  // observable through every record being terminal afterwards.
  const JobRecord& job = server.wait(high2);
  EXPECT_EQ(job.state, JobState::kDone);
  EXPECT_EQ(server.find(high)->state, JobState::kDone);
  EXPECT_EQ(server.find(low)->state, JobState::kQueued);
  server.drain();
  EXPECT_EQ(server.find(low)->state, JobState::kDone);
}

TEST(Server, SubSizedJobRunsOnASplitOfThePool) {
  ServerOptions opts;
  opts.pool_ranks = 8;
  Server server(opts);
  JobSpec spec = small_spgemm("alice");
  spec.ranks = 4;  // half the pool idles through the split
  const std::string id = server.submit(std::move(spec));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_GT(job.c.nnz(), 0);
}

TEST(Server, StructuralErrorsThrowInsteadOfRecording) {
  Server server(ServerOptions{});
  JobSpec too_wide = small_spgemm("alice");
  too_wide.ranks = 16;  // pool has 4
  EXPECT_THROW(server.submit(std::move(too_wide)), InvalidArgument);

  JobSpec invalid;  // no input operand
  EXPECT_THROW(server.submit(std::move(invalid)), InvalidArgument);

  JobSpec dup = small_spgemm("alice");
  dup.job_id = "same";
  server.submit(std::move(dup));
  JobSpec dup2 = small_spgemm("alice");
  dup2.job_id = "same";
  EXPECT_THROW(server.submit(std::move(dup2)), InvalidArgument);
}

// One tenant's injected crash is recovered by per-job supervision: the pool
// survives, the job restarts (disarming the fired fault) and completes.
TEST(FaultSvc, SupervisedCrashRecoversOnTheResidentPool) {
  Server server(ServerOptions{});
  JobSpec chaos = small_spgemm("chaos");
  chaos.fault_spec =
      "seed=" + std::to_string(fault_seed()) + ";crash_rank=2;crash_op=10";
  chaos.max_restarts = 3;
  const std::string id = server.submit(std::move(chaos));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_EQ(job.report.billing.restarts, 1u);
  ASSERT_EQ(job.report.billing.recovered_failure_kinds.size(), 1u);
  EXPECT_EQ(job.report.billing.recovered_failure_kinds[0], "rank_crash");

  // The pool is not poisoned: a clean tenant's job runs right after.
  const std::string clean = server.submit(small_spgemm("clean"));
  EXPECT_EQ(server.wait(clean).state, JobState::kDone);
}

// A crash-loop tenant: two independent fault kinds, restart budget of one.
// Attempt 1 dies (say retry_exhausted), the supervisor disarms that fault
// and spends the only restart, attempt 2 dies on the other fault
// (rank_crash) with the budget exhausted — the job fails, the pool and the
// other tenants don't.
TEST(FaultSvc, CrashLoopExhaustsRestartsWithoutPoisoningThePool) {
  Server server(ServerOptions{});
  JobSpec loop = small_spgemm("chaos");
  loop.fault_spec = "seed=" + std::to_string(fault_seed()) +
                    ";send_fail=1.0;crash_rank=1;crash_op=10";
  loop.max_restarts = 1;
  const std::string id = server.submit(std::move(loop));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kFailed);
  EXPECT_EQ(job.report.billing.restarts, 1u);
  EXPECT_NE(job.reason.find("rank_crash"), std::string::npos) << job.reason;
  EXPECT_EQ(server.tenant("chaos").reserved(), 0u);

  const std::string clean = server.submit(small_spgemm("clean"));
  EXPECT_EQ(server.wait(clean).state, JobState::kDone);
}

// The server's restart chain follows the same backoff ladder as
// run_supervised: two recoverable fault kinds fire one per attempt, each
// relaunch waits min(base << k, cap) with the default 1 ms base, and the
// third attempt finishes. The recovery report records both kinds.
TEST(FaultSvc, RestartChainFollowsTheBackoffLadder) {
  Server server(ServerOptions{});
  JobSpec ladder = small_spgemm("chaos");
  ladder.fault_spec = "seed=" + std::to_string(fault_seed()) +
                      ";send_fail=1.0;crash_rank=1;crash_op=10";
  ladder.max_restarts = 3;
  const std::string id = server.submit(std::move(ladder));
  const JobRecord& job = server.wait(id);
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  ASSERT_TRUE(job.report.run.has_value());
  ASSERT_TRUE(job.report.run->recovery.has_value());
  const obs::RecoveryReport& rec = *job.report.run->recovery;
  EXPECT_EQ(rec.restarts, 2);
  EXPECT_EQ(rec.backoff_plan_us, (std::vector<std::int64_t>{1000, 2000}));
  ASSERT_EQ(rec.failure_kinds.size(), 2u);
  EXPECT_NE(std::find(rec.failure_kinds.begin(), rec.failure_kinds.end(),
                      "retry_exhausted"),
            rec.failure_kinds.end());
  EXPECT_NE(std::find(rec.failure_kinds.begin(), rec.failure_kinds.end(),
                      "rank_crash"),
            rec.failure_kinds.end());
}

// Unsupervised fault: the failure is captured as a structured kFailed
// record (never an exception, never a poisoned pool).
TEST(FaultSvc, UnsupervisedCrashBecomesAFailedRecord) {
  Server server(ServerOptions{});
  JobSpec chaos = small_spgemm("chaos");
  chaos.fault_spec =
      "seed=" + std::to_string(fault_seed()) + ";crash_rank=1;crash_op=10";
  const std::string id = server.submit(std::move(chaos));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kFailed);
  EXPECT_NE(job.reason.find("rank_crash"), std::string::npos) << job.reason;

  const std::string clean = server.submit(small_spgemm("clean"));
  EXPECT_EQ(server.wait(clean).state, JobState::kDone);
}

}  // namespace
}  // namespace casp::svc
