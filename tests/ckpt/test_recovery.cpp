// End-to-end crash recovery: a job killed mid-run by an injected fault,
// supervised by vmpi::run_supervised, must fast-forward from the newest
// valid checkpoint generation and finish with results bit-identical to the
// fault-free run — equal product matrices (tolerance 0.0), byte-identical
// streamed batch files, identical MCL cluster assignments.
//
// The Recovery* suites are the body of tools/check.sh stage (g): they read
// CASP_FAULT_SEED (default 1) so the same binaries sweep several crash
// schedules — each seed kills a different rank (seed % p) at a
// seed-dependent op.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/batch_io.hpp"
#include "apps/mcl.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/redistribute.hpp"
#include "grid/dist.hpp"
#include "obs/report.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

namespace fs = std::filesystem;

std::uint64_t sweep_seed() {
  const char* env = std::getenv("CASP_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/casp_recovery_" + name +
                          "_s" + std::to_string(sweep_seed());
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::int64_t counter_max(const vmpi::RunResult& result,
                         const std::string& name) {
  std::int64_t best = -1;
  for (const auto& rec : result.recorders) {
    const auto it = rec.counters().find(name);
    if (it != rec.counters().end() && it->second > best) best = it->second;
  }
  return best;
}

std::int64_t counter_sum(const vmpi::RunResult& result,
                         const std::string& name) {
  std::int64_t sum = 0;
  for (const auto& rec : result.recorders) {
    const auto it = rec.counters().find(name);
    if (it != rec.counters().end()) sum += it->second;
  }
  return sum;
}

// A crash plan for this sweep seed on a p-rank job: kill rank (seed % p)
// at an op index that lands mid-run (after at least one batch/iteration
// checkpoint, before the job finishes). The crash tests assert the hard
// guarantees — restarts >= 1 proves the crash fired, and the relaunch must
// reproduce the fault-free output bit-identically. Whether the relaunch
// fast-forwards or restarts cold depends on how far the *other* ranks got
// before the abort reached them (thread scheduling), so the deterministic
// resume proof lives in RecoveryDurability, not here.
vmpi::FaultPlan crash_plan(int p, std::uint64_t op) {
  vmpi::FaultPlan plan;
  plan.seed = sweep_seed();
  plan.crash_rank = static_cast<int>(sweep_seed() % static_cast<std::uint64_t>(p));
  plan.crash_op = op;
  return plan;
}

// ---------------------------------------------------------------------------
// SpGEMM: crash mid-batch, recover, compare against the fault-free run.

TEST(RecoverySpGemm, CrashMidBatchRecoversBitIdentically) {
  const int p = 4, layers = 1;
  const Index n = 30;
  const CscMat a = testing::random_matrix(n, n, 3.0, 150);
  SummaOptions base_opts;
  base_opts.force_batches = 5;

  // Fault-free baseline: the streamed batch files and the gathered C.
  const std::string dir_base = fresh_dir("spgemm_base");
  CscMat base_c;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, layers);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, 0, base_opts,
        make_disk_batch_writer(dir_base, world.rank()), /*keep_output=*/true);
    CscMat full = gather_dist(grid, r.c);
    if (world.rank() == 0) base_c = std::move(full);
  });

  // Crashed + supervised run with batch-boundary checkpoints.
  const std::string dir_sup = fresh_dir("spgemm_sup");
  const std::string ck_dir = fresh_dir("spgemm_ckpt");
  CscMat sup_c;
  vmpi::SupervisorOptions sup_opts;
  sup_opts.faults = crash_plan(p, /*op=*/15 + 2 * sweep_seed());
  sup_opts.max_restarts = 3;
  vmpi::SupervisedResult sup = vmpi::run_supervised(
      p,
      [&](vmpi::Comm& world) {
        ckpt::Checkpointer ck(ck_dir, world.rank(), /*every=*/1,
                              &world.recorder());
        SummaOptions opts = base_opts;
        opts.ckpt = &ck;
        Grid3D grid(world, layers);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, a);
        BatchedResult r = batched_summa3d<PlusTimes>(
            grid, da, db, 0, opts,
            make_disk_batch_writer(dir_sup, world.rank()),
            /*keep_output=*/true);
        CscMat full = gather_dist(grid, r.c);
        if (world.rank() == 0) sup_c = std::move(full);
      },
      sup_opts);

  // The crash fired and the supervisor relaunched to completion. (No
  // assertion on ckpt.resumes here: the resume only recovers a batch if
  // every rank banked it before the abort reached it, which is a
  // thread-scheduling question — the deterministic resume proof is
  // RecoveryDurability below.)
  ASSERT_FALSE(sup.result.failed())
      << sup.result.failure->describe();
  EXPECT_GE(sup.restarts, 1);
  EXPECT_TRUE(sup.recovered());
  ASSERT_EQ(sup.recovered_failures.size(), static_cast<std::size_t>(sup.restarts));
  EXPECT_EQ(sup.recovered_failures[0].kind, "rank_crash");

  // Bit-identical recovery: exact product (tolerance 0.0) and
  // byte-identical streamed batch files.
  testing::expect_mat_near(sup_c, base_c, 0.0);
  for (int r = 0; r < p; ++r) {
    const std::string part = "/part-" + std::to_string(r) + ".txt";
    EXPECT_EQ(slurp(dir_sup + part), slurp(dir_base + part))
        << "rank " << r << " streamed different bytes after recovery";
  }
}

// ---------------------------------------------------------------------------
// MCL: crash mid-iteration, recover, identical clustering.

CscMat noisy_blocks(Index k) {
  // Two k-blocks with jittered weights and weak bridges: enough structure
  // for MCL to need several iterations, so a mid-run crash lands between
  // iteration-boundary checkpoints.
  TripleMat t(2 * k, 2 * k);
  for (Index block = 0; block < 2; ++block) {
    for (Index i = 0; i < k; ++i) {
      for (Index j = 0; j < k; ++j) {
        const double w = 1.0 + 0.1 * static_cast<double>((i * 7 + j * 13) % 5);
        t.push_back(block * k + i, block * k + j, w);
      }
    }
  }
  for (Index i = 0; i < k; ++i)  // weak inter-block bridges
    t.push_back(i, k + i, 0.05);
  return CscMat::from_triples(std::move(t));
}

TEST(RecoveryMcl, CrashMidIterationRecoversIdentically) {
  const int p = 4, layers = 1;
  const CscMat network = noisy_blocks(12);
  MclParams params;
  params.max_iterations = 30;

  MclResult base;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, layers);
    MclResult r = mcl_cluster_distributed(grid, network, params);
    if (world.rank() == 0) base = std::move(r);
  });
  ASSERT_GE(base.iterations, 3)
      << "workload converged too fast to test mid-run recovery";

  const std::string ck_dir = fresh_dir("mcl_ckpt");
  MclResult recovered;
  vmpi::SupervisorOptions sup_opts;
  sup_opts.faults = crash_plan(p, /*op=*/40 + 10 * sweep_seed());
  sup_opts.max_restarts = 3;
  vmpi::SupervisedResult sup = vmpi::run_supervised(
      p,
      [&](vmpi::Comm& world) {
        ckpt::Checkpointer ck(ck_dir, world.rank(), /*every=*/1,
                              &world.recorder());
        SummaOptions opts;
        opts.ckpt = &ck;
        Grid3D grid(world, layers);
        MclResult r = mcl_cluster_distributed(grid, network, params, 0, opts);
        if (world.rank() == 0) recovered = std::move(r);
      },
      sup_opts);

  ASSERT_FALSE(sup.result.failed()) << sup.result.failure->describe();
  EXPECT_GE(sup.restarts, 1);

  // Identical clustering, iteration count, and per-iteration trajectory.
  EXPECT_EQ(recovered.cluster_of, base.cluster_of);
  EXPECT_EQ(recovered.num_clusters, base.num_clusters);
  EXPECT_EQ(recovered.iterations, base.iterations);
  ASSERT_EQ(recovered.per_iteration.size(), base.per_iteration.size());
  for (std::size_t i = 0; i < base.per_iteration.size(); ++i) {
    EXPECT_EQ(recovered.per_iteration[i].nnz_after,
              base.per_iteration[i].nnz_after);
    EXPECT_DOUBLE_EQ(recovered.per_iteration[i].chaos,
                     base.per_iteration[i].chaos);
  }
}

// ---------------------------------------------------------------------------
// Durability end-to-end: a torn newest generation (and a corrupted one on
// another rank) must fall back to generation N−1 and still recover
// bit-identically via the per-batch coverage consensus.

TEST(RecoveryDurability, TornAndCorruptNewestGenerationsFallBack) {
  const int p = 4, layers = 1;
  const Index n = 26;
  const CscMat a = testing::random_matrix(n, n, 3.0, 151);
  SummaOptions base_opts;
  base_opts.force_batches = 5;

  const std::string dir_base = fresh_dir("torn_base");
  const std::string ck_dir = fresh_dir("torn_ckpt");
  CscMat base_c;
  vmpi::run(p, [&](vmpi::Comm& world) {
    ckpt::Checkpointer ck(ck_dir, world.rank(), /*every=*/1,
                          &world.recorder());
    SummaOptions opts = base_opts;
    opts.ckpt = &ck;
    Grid3D grid(world, layers);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, 0, opts,
        make_disk_batch_writer(dir_base, world.rank()), /*keep_output=*/true);
    CscMat full = gather_dist(grid, r.c);
    if (world.rank() == 0) base_c = std::move(full);
  });

  // Damage the newest generation on two ranks: tear (truncate) rank 1's,
  // flip a byte in rank 2's. Both must fail the checksum and fall back.
  const std::string job = summa_ckpt_job_id(n, n, n, a.nnz(), a.nnz(), "");
  const std::string torn = ckpt::Checkpointer(ck_dir, 1).generation_path(
      ckpt::kSummaCkptScope, job, 5);
  ASSERT_TRUE(fs::exists(torn)) << "expected 5 generations";
  fs::resize_file(torn, fs::file_size(torn) / 2);
  const std::string corrupt = ckpt::Checkpointer(ck_dir, 2).generation_path(
      ckpt::kSummaCkptScope, job, 5);
  ASSERT_TRUE(fs::exists(corrupt));
  {
    std::fstream f(corrupt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(corrupt) / 2));
    f.put('\x55');
  }

  // A fresh run over the same job resumes from what survives: damaged
  // ranks fall back to generation 4, so the last batch is recovered on no
  // rank and every rank computes it. Output must still be bit-identical —
  // including the streamed files, which the recovered batches re-write.
  const std::string dir_resume = fresh_dir("torn_resume");
  CscMat resumed_c;
  vmpi::RunResult resumed = vmpi::run(p, [&](vmpi::Comm& world) {
    ckpt::Checkpointer ck(ck_dir, world.rank(), /*every=*/1,
                          &world.recorder());
    SummaOptions opts = base_opts;
    opts.ckpt = &ck;
    Grid3D grid(world, layers);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, 0, opts,
        make_disk_batch_writer(dir_resume, world.rank()),
        /*keep_output=*/true);
    CscMat full = gather_dist(grid, r.c);
    if (world.rank() == 0) resumed_c = std::move(full);
  });

  EXPECT_EQ(counter_sum(resumed, "ckpt.resumes"), p);
  // The damaged ranks' newest valid generation is 4; healthy ranks still
  // load 5 but the consensus recovers only the common prefix.
  EXPECT_EQ(counter_max(resumed, "ckpt.resumed_generation"), 5);
  testing::expect_mat_near(resumed_c, base_c, 0.0);
  for (int r = 0; r < p; ++r) {
    const std::string part = "/part-" + std::to_string(r) + ".txt";
    EXPECT_EQ(slurp(dir_resume + part), slurp(dir_base + part));
  }
}

// ---------------------------------------------------------------------------
// Supervisor semantics and report plumbing.

TEST(RecoverySupervisor, NonRecoverableFailuresAreNotRetried) {
  vmpi::SupervisorOptions sup_opts;
  vmpi::FaultPlan plan;
  plan.seed = sweep_seed();
  plan.alloc_fail = 1.0;
  sup_opts.faults = plan;
  sup_opts.max_restarts = 3;
  vmpi::SupervisedResult sup = vmpi::run_supervised(
      2,
      [&](vmpi::Comm& comm) {
        comm.set_phase("Alloc");
        MemoryTracker tracker(1 << 20);
        vmpi::arm_alloc_faults(comm, tracker);
        tracker.allocate(64, "doomed buffer");
      },
      sup_opts);
  // memory_budget is not a crash — rerunning cannot help, so the
  // supervisor must not burn restarts on it.
  ASSERT_TRUE(sup.result.failed());
  EXPECT_EQ(sup.result.failure->kind, "memory_budget");
  EXPECT_EQ(sup.restarts, 0);
  EXPECT_FALSE(sup.recovered());
}

TEST(RecoverySupervisor, MaxRestartsZeroMeansSingleAttempt) {
  vmpi::SupervisorOptions sup_opts;
  sup_opts.faults = crash_plan(2, /*op=*/1);
  sup_opts.max_restarts = 0;
  vmpi::SupervisedResult sup = vmpi::run_supervised(
      2,
      [&](vmpi::Comm& comm) {
        (void)comm.allreduce_sum<int>(comm.rank());
      },
      sup_opts);
  ASSERT_TRUE(sup.result.failed());
  EXPECT_EQ(sup.result.failure->kind, "rank_crash");
  EXPECT_EQ(sup.restarts, 0);
}

TEST(RecoveryReportJson, RecoveryKeyRecordsTheRestart) {
  vmpi::SupervisorOptions sup_opts;
  sup_opts.faults = crash_plan(2, /*op=*/2);
  sup_opts.max_restarts = 2;
  vmpi::SupervisedResult sup = vmpi::run_supervised(
      2,
      [&](vmpi::Comm& comm) {
        comm.set_phase("Work");
        for (int i = 0; i < 4; ++i)
          (void)comm.allreduce_sum<int>(comm.rank() + i);
      },
      sup_opts);
  ASSERT_FALSE(sup.result.failed());
  ASSERT_EQ(sup.restarts, 1);

  const obs::RunReport report = obs::build_report(sup);
  ASSERT_TRUE(report.recovery.has_value());
  EXPECT_EQ(report.recovery->restarts, 1);
  EXPECT_EQ(report.recovery->max_restarts, 2);
  ASSERT_EQ(report.recovery->failure_kinds.size(), 1u);
  EXPECT_EQ(report.recovery->failure_kinds[0], "rank_crash");
  EXPECT_FALSE(report.failure.has_value());

  const std::string json = report.to_json().dump();
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"restarts\""), std::string::npos);
  EXPECT_NE(json.find("\"rank_crash\""), std::string::npos);
  // The deterministic subset stays recovery-free (restart counts and
  // failure kinds vary with the fault schedule, not the program).
  const std::string det = report.deterministic_json().dump();
  EXPECT_EQ(det.find("\"recovery\""), std::string::npos);

  // An unsupervised report has no recovery key at all.
  const obs::RunReport plain = obs::build_report(sup.result);
  EXPECT_FALSE(plain.recovery.has_value());
}

}  // namespace
}  // namespace casp
