// casp_chaos — sustained multi-tenant chaos soak against svc::Server.
//
// The ISSUE-9 acceptance driver: a generated queue of mixed-tenant jobs
// (SpGEMM / MCL / triangle count) drains on one resident 9-rank pool under
// sustained seeded faults — delays, transient sends, payload corruption,
// transient crashes, permanent crashes, alloc faults, and a deadline storm —
// and the tool asserts the service's survival contract:
//
//   1. zero wedges: every job reaches a terminal state (done or classified
//      failed); the injected deadline / always-corrupt / alloc jobs fail
//      with their expected kinds and nothing else hangs the pool;
//   2. the chaos actually bit: every transient-crash job restarted, a
//      permanent crash forced at least one elastic job onto a degraded
//      survivor grid, and the payload checksum caught corruption;
//   3. surviving-output bit-identity: every done job's output equals the
//      fault-free run of the stripped spec (no faults, no deadline, no
//      checkpoints) on a fresh healthy server — tolerance 0.0. Elastic
//      jobs that finished on a shrunk grid use integer-valued inputs, so
//      the comparison is legitimate across grid shapes;
//   4. reconciled billing: per tenant, the sum of per-job billed logical
//      bytes equals the ledger's traffic_billed();
//   5. double-drain determinism: two independent servers fed the same specs
//      produce byte-identical deterministic per-job reports.
//
// --churn turns the soak into the ISSUE-10 membership storm: the server
// runs with auto_rejoin, so every permanent crash immediately requests
// re-join (kill -> replace -> probation), and the membership corrupt hook
// models one flapping replacement — the rank `seed % 9`, whose handshake
// echo is corrupted on every probation attempt. Extra gates:
//
//   6. at least one elastic job healed all the way: paused at a batch
//      boundary, re-admitted its crashed rank, and REGREW its grid
//      (recovery.regrown_to_ranks > regrown_from_ranks), still finishing
//      bit-identical to the fault-free reference under gate 3;
//   7. the flapping rank failed probation max_failures times and sits in
//      quarantine when the drain ends — and nothing else does.
//
// Usage:
//   casp_chaos [--jobs N] [--tenants T] [--seed S] [--churn]
//              [--ckpt-root DIR] [--reports FILE]
//
// Defaults: 24 jobs, 3 tenants, seed 1 (check.sh stage (j) sweeps seeds).
// Exit 0 when every gate holds, 1 on any violation, 2 on usage errors.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "svc/server.hpp"

namespace {

using casp::Bytes;
using casp::Index;

int failures = 0;

/// Soak-style assertion: report and count, never abort — a later gate's
/// evidence is still worth printing after an earlier one fails.
void check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL: " << what << "\n";
}

void usage() {
  std::cerr << "usage: casp_chaos [--jobs N] [--tenants T] [--seed S]\n"
               "                  [--churn] [--ckpt-root DIR] "
               "[--reports FILE]\n";
}

std::string tenant_name(int k) {
  static const char* kNamed[] = {"alice", "bob", "chaos"};
  if (k < 3) return kNamed[k];
  return "tenant" + std::to_string(k);
}

std::int64_t counter_sum(const casp::vmpi::RunResult& result,
                         const std::string& name) {
  std::int64_t total = 0;
  for (const casp::obs::Recorder& rec : result.recorders) {
    auto it = rec.counters().find(name);
    if (it != rec.counters().end()) total += it->second;
  }
  return total;
}

/// The generated queue plus the ids of the jobs whose outcome is pinned.
struct ChaosPlan {
  std::vector<casp::svc::JobSpec> specs;
  std::string deadline_id;  ///< must fail "deadline_exceeded" (empty = none)
  std::string corrupt_id;   ///< must fail "retry_exhausted" via checksum
  std::string alloc_id;     ///< must fail classified (alloc_fail=1.0)
  std::vector<std::string> perm_ids;  ///< elastic jobs with a permanent crash
  std::vector<std::string> crash_ids;  ///< supervised transient-crash jobs
};

/// Deterministic job mix for (jobs, tenants, seed). Two calls with the same
/// arguments build byte-identical specs except for ckpt_root, which must
/// differ per drain so the second drain cannot resume from the first one's
/// checkpoints. Shapes rotate mod 8:
///   0 clean SpGEMM · 1 AᵀA / hybrid pipeline · 2 transient crash (supervised)
///   3 MCL + ckpt + transient crash · 4 corrupt / send_fail storm
///   5 triangle count under delay faults · 6 elastic 9-rank SpGEMM with
///   checkpoints (the first two occurrences add a permanent crash; later
///   ones run degraded from the start once the pool has dead ranks)
///   7 one-off specials: deadline storm, always-corrupt, alloc-fault, then
///   clean MCL.
ChaosPlan make_plan(int jobs, int tenants, std::uint64_t seed,
                    bool sched_active, const std::string& ckpt_root) {
  using casp::svc::JobOp;
  using casp::svc::JobSpec;
  using casp::svc::MatrixSource;
  ChaosPlan plan;
  for (int i = 0; i < jobs; ++i) {
    const int occ = i / 8;  // how many times this shape appeared before
    const std::uint64_t js = seed * 1000 + static_cast<std::uint64_t>(i);
    JobSpec s;
    s.job_id = "chaos-" + std::to_string(i);
    s.tenant = tenant_name(i % tenants);
    s.priority = i % 3;
    s.ranks = 4;
    switch (i % 8) {
      case 0:  // clean SpGEMM baseline
        s.a = MatrixSource::er_square(56, 3.0, js);
        break;
      case 1:  // A·Aᵀ on the prior-work pipeline
        s.a = MatrixSource::er_square(48, 3.0, js);
        s.aat = true;
        s.kernel = casp::Pipeline::kHybrid;
        break;
      case 2:  // transient crash, supervised recovery on the full grid
        // crash_op stays within the 17 vmpi ops rank 2 (= i % 4) makes in
        // this job, so every occurrence crashes.
        s.a = MatrixSource::er_square(52, 3.0, js);
        s.fault_spec = "seed=" + std::to_string(js) +
                       ";crash_rank=" + std::to_string(i % 4) +
                       ";crash_op=" + std::to_string(6 + 3 * (occ % 4));
        s.max_restarts = 2;
        plan.crash_ids.push_back(s.job_id);
        break;
      case 3:  // MCL with checkpoints; the relaunch may resume mid-iteration
        s.op = JobOp::kMcl;
        s.a = MatrixSource::protein_network(36, js);
        s.mcl.max_iterations = 6;
        s.ckpt_dir = ckpt_root + "/" + s.job_id;
        s.fault_spec = "seed=" + std::to_string(js) +
                       ";crash_rank=" + std::to_string(i % 4) +
                       ";crash_op=" + std::to_string(60 + 10 * (occ % 5));
        s.max_restarts = 2;
        break;
      case 4:  // seeded storms riding the transport retry ladder
        s.a = MatrixSource::er_square(52, 3.0, js);
        s.fault_spec = "seed=" + std::to_string(js) +
                       (occ % 2 == 0 ? ";corrupt_prob=0.05" : ";send_fail=0.04");
        s.max_restarts = 2;
        break;
      case 5:  // triangle count under delay faults (result unchanged)
        s.op = JobOp::kTriangleCount;
        s.a = MatrixSource::rmat_graph(6, 4.0, js);
        s.fault_spec = "seed=" + std::to_string(js) +
                       ";delay_us=40;delay_every=9;delay_rank=" +
                       std::to_string(i % 4);
        break;
      case 6:  // elastic full-grid SpGEMM; integer values so the degraded
               // grid's output stays bit-comparable across grid shapes
        s.a = MatrixSource::er_square(48, 3.0, js);
        s.a.er.random_values = false;
        s.ranks = 9;
        s.elastic = true;
        s.force_batches = 3;
        s.ckpt_dir = ckpt_root + "/" + s.job_id;
        s.max_restarts = 1;
        if (occ < 2) {
          s.fault_spec =
              "seed=" + std::to_string(js) + ";perm_crash_rank=" +
              std::to_string((seed + static_cast<std::uint64_t>(occ)) % 9) +
              ";perm_crash_op=" + std::to_string(20 + 6 * occ);
          plan.perm_ids.push_back(s.job_id);
        }
        break;
      case 7:
        if (occ == 0 && !sched_active) {
          // Deadline storm: 3 ms injected delay on every vmpi op makes the
          // 60 ms budget hopeless; the watchdog must cancel and classify.
          // (Deadlines are wall-clock; skipped under CASP_VMPI_SCHED.)
          s.a = MatrixSource::er_square(48, 3.0, js);
          s.fault_spec =
              "seed=" + std::to_string(js) + ";delay_us=3000;delay_every=1";
          s.deadline_ms = 60;
          plan.deadline_id = s.job_id;
        } else if (occ == 1) {
          // Every payload corrupted: the FNV-1a64 checksum must reject each
          // delivery until retries exhaust. Unsupervised on purpose — a
          // supervised attempt would disarm the storm and succeed.
          s.a = MatrixSource::er_square(48, 3.0, js);
          s.fault_spec = "seed=" + std::to_string(js) + ";corrupt_prob=1.0";
          plan.corrupt_id = s.job_id;
        } else if (occ == 2) {
          // Every tracked allocation fails against the declared budget.
          s.a = MatrixSource::er_square(48, 3.0, js);
          s.fault_spec = "seed=" + std::to_string(js) + ";alloc_fail=1.0";
          s.memory_bytes = Bytes{64} << 20;
          plan.alloc_id = s.job_id;
        } else {
          s.op = JobOp::kMcl;
          s.a = MatrixSource::protein_network(32, js);
          s.mcl.max_iterations = 5;
        }
        break;
    }
    plan.specs.push_back(std::move(s));
  }
  return plan;
}

/// Fault-free equivalent of a chaos spec: same work, same grid request,
/// no faults / deadline / checkpoints / elasticity. Run on a fresh healthy
/// server, its outputs are the bit-identity reference.
casp::svc::JobSpec stripped(casp::svc::JobSpec s) {
  s.fault_spec.clear();
  s.deadline_ms = 0;
  s.max_restarts = -1;
  s.ckpt_dir.clear();
  s.elastic = false;
  return s;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  out << text << "\n";
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace casp;
  namespace fs = std::filesystem;
  int jobs = 24;
  int tenants = 3;
  std::uint64_t seed = 1;
  bool churn = false;
  std::string ckpt_root, reports_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--jobs") {
        jobs = std::stoi(next("--jobs"));
      } else if (arg == "--tenants") {
        tenants = std::stoi(next("--tenants"));
      } else if (arg == "--seed") {
        seed = static_cast<std::uint64_t>(std::stoull(next("--seed")));
      } else if (arg == "--churn") {
        churn = true;
      } else if (arg == "--ckpt-root") {
        ckpt_root = next("--ckpt-root");
      } else if (arg == "--reports") {
        reports_path = next("--reports");
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::cerr << "unknown option " << arg << "\n";
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  if (jobs < 1 || tenants < 1) {
    std::cerr << "--jobs and --tenants must be >= 1\n";
    return 2;
  }
  if (jobs < 20)
    std::cout << "note: " << jobs
              << " jobs is below the stage (j) soak floor of 20\n";
  const bool sched_active = std::getenv("CASP_VMPI_SCHED") != nullptr;
  if (sched_active)
    std::cout << "note: CASP_VMPI_SCHED set — deadline job replaced "
                 "(wall-clock deadlines are not enforced under the "
                 "deterministic scheduler)\n";
  if (ckpt_root.empty())
    ckpt_root = (fs::temp_directory_path() /
                 ("casp_chaos-" + std::to_string(::getpid())))
                    .string();

  try {
    svc::ServerOptions server_opts;
    server_opts.pool_ranks = 9;
    // Membership storm: permanent crashes auto-request re-join, and the
    // rank `seed % 9` flaps — its probation handshake echo is corrupted on
    // every attempt, so it must end the drain quarantined. The fault plan
    // guarantees that rank is the first shape-6 job's crash victim, and the
    // second shape-6 victim (a different rank mod 9) re-joins cleanly and
    // lets its job regrow.
    const int flap_rank = static_cast<int>(seed % 9);
    if (churn) {
      server_opts.auto_rejoin = true;
      server_opts.membership.corrupt = [flap_rank](int rank, int) {
        return rank == flap_rank;
      };
    }

    // ---- Drain 1: the chaos queue whose outcomes we inspect. -------------
    ChaosPlan plan =
        make_plan(jobs, tenants, seed, sched_active, ckpt_root + "/drain0");
    svc::Server server(server_opts);
    std::vector<std::string> ids;
    for (const svc::JobSpec& spec : plan.specs) ids.push_back(server.submit(spec));
    server.drain();

    // Gate 1: zero wedges — every job terminal, failures classified.
    int done = 0, failed = 0;
    int restarts = 0, degraded = 0, regrown = 0;
    std::int64_t checksum_rejects = 0;
    for (const std::string& id : ids) {
      const svc::JobRecord* job = server.find(id);
      check(job != nullptr && job->terminal(), id + " not terminal (wedged)");
      if (job == nullptr || !job->terminal()) continue;
      const bool is_done = job->state == svc::JobState::kDone;
      const bool is_failed = job->state == svc::JobState::kFailed;
      check(is_done || is_failed,
            id + " unexpected state " + to_string(job->state));
      done += is_done;
      failed += is_failed;
      if (is_failed)
        check(!job->reason.empty(), id + " failed without a classified reason");
      restarts += job->report.billing.restarts;
      checksum_rejects += counter_sum(job->run_result, "vmpi.checksum_rejects");
      if (job->report.run && job->report.run->recovery &&
          job->report.run->recovery->degraded_to_ranks > 0)
        ++degraded;
      if (job->report.run && job->report.run->recovery &&
          job->report.run->recovery->regrown_to_ranks > 0)
        ++regrown;
      std::cout << id << " tenant=" << job->spec.tenant
                << " op=" << to_string(job->spec.op)
                << " state=" << to_string(job->state);
      if (job->report.billing.restarts > 0)
        std::cout << " restarts=" << job->report.billing.restarts;
      if (job->report.run && job->report.run->recovery &&
          job->report.run->recovery->degraded_to_ranks > 0)
        std::cout << " degraded_to="
                  << job->report.run->recovery->degraded_to_ranks;
      if (job->report.run && job->report.run->recovery &&
          job->report.run->recovery->regrown_to_ranks > 0)
        std::cout << " regrown="
                  << job->report.run->recovery->regrown_from_ranks << "->"
                  << job->report.run->recovery->regrown_to_ranks;
      if (!job->reason.empty()) std::cout << " (" << job->reason << ")";
      std::cout << "\n";
    }
    auto expect_failed_kind = [&](const std::string& id,
                                  const std::string& kind) {
      if (id.empty()) return;
      const svc::JobRecord* job = server.find(id);
      check(job != nullptr && job->state == svc::JobState::kFailed,
            id + " should have failed (" + kind + ")");
      if (job == nullptr) return;
      if (!kind.empty())
        check(job->reason.find(kind) != std::string::npos,
              id + " reason lacks \"" + kind + "\": " + job->reason);
    };
    expect_failed_kind(plan.deadline_id, "deadline_exceeded");
    expect_failed_kind(plan.corrupt_id, "retry_exhausted");
    expect_failed_kind(plan.alloc_id, "");  // classified, kind not pinned

    // Gate 2: the chaos actually bit.
    if (jobs >= 8) check(restarts >= 1, "no supervised restart happened");
    for (const std::string& id : plan.crash_ids) {
      const svc::JobRecord* job = server.find(id);
      check(job != nullptr && job->report.billing.restarts >= 1,
            id + " (transient crash) never crashed");
    }
    if (!plan.perm_ids.empty()) {
      check(degraded >= 1, "no job finished on a degraded grid");
      for (const std::string& id : plan.perm_ids) {
        const svc::JobRecord* job = server.find(id);
        check(job != nullptr && job->state == svc::JobState::kDone,
              id + " (elastic, permanent crash) did not finish");
      }
      check(server.pool().alive_count() <
                static_cast<int>(server_opts.pool_ranks),
            "permanent crashes left no dead rank in the pool health map");
    }
    if (!plan.corrupt_id.empty())
      check(checksum_rejects >= 1, "checksum caught no corrupted payload");

    // Gates 6 + 7 (churn only): the membership storm must have produced a
    // full kill -> replace -> rejoin -> regrow cycle, and the flapping
    // replacement must sit in quarantine — alone.
    if (churn && plan.perm_ids.size() >= 2) {
      check(regrown >= 1,
            "churn: no job re-admitted its crashed rank and regrew its grid");
      for (const std::string& id : plan.perm_ids) {
        const svc::JobRecord* job = server.find(id);
        if (job == nullptr || !job->report.run || !job->report.run->recovery)
          continue;
        const obs::RecoveryReport& rec = *job->report.run->recovery;
        if (rec.regrown_to_ranks > 0) {
          check(rec.regrown_to_ranks > rec.regrown_from_ranks,
                id + " regrow evidence is not an expansion");
          check(!rec.rejoined_ranks.empty(),
                id + " regrew without recording the re-joined ranks");
        }
      }
      const std::vector<int> quarantined = server.pool().quarantined_ranks();
      check(quarantined == std::vector<int>{flap_rank},
            "churn: expected exactly rank " + std::to_string(flap_rank) +
                " (the flapping replacement) in quarantine");
      check(server.pool().probation_failures(flap_rank) >=
                server_opts.membership.max_failures,
            "churn: flapping rank quarantined before max_failures strikes");
    }

    // Gate 3: surviving-output bit-identity against stripped specs on a
    // fresh healthy server (tolerance 0.0 — integer inputs make this
    // legitimate even for jobs that finished on a shrunk grid).
    svc::Server reference(server_opts);
    for (const svc::JobSpec& spec : plan.specs)
      reference.submit(stripped(spec));
    reference.drain();
    for (const std::string& id : ids) {
      const svc::JobRecord* job = server.find(id);
      if (job == nullptr || job->state != svc::JobState::kDone) continue;
      const svc::JobRecord* ref = reference.find(id);
      check(ref != nullptr && ref->state == svc::JobState::kDone,
            id + " reference run did not finish (" +
                (ref ? ref->reason : "missing") + ")");
      if (ref == nullptr || ref->state != svc::JobState::kDone) continue;
      switch (job->spec.op) {
        case svc::JobOp::kSpGemm:
          check(job->c == ref->c, id + " product diverged from fault-free run");
          break;
        case svc::JobOp::kMcl:
          check(job->mcl.cluster_of == ref->mcl.cluster_of &&
                    job->mcl.num_clusters == ref->mcl.num_clusters &&
                    job->mcl.iterations == ref->mcl.iterations,
                id + " clustering diverged from fault-free run");
          break;
        case svc::JobOp::kTriangleCount:
          check(job->triangles == ref->triangles,
                id + " triangle count diverged from fault-free run");
          break;
      }
    }

    // Gate 4: billing reconciliation — per tenant, the per-job billed
    // logical bytes sum to the ledger's total.
    std::map<std::string, Bytes> billed;
    for (const std::string& id : ids) {
      const svc::JobRecord* job = server.find(id);
      if (job != nullptr)
        billed[job->spec.tenant] += job->report.billing.logical_bytes;
    }
    for (const auto& [tenant, logical] : billed)
      check(server.tenant(tenant).traffic_billed() == logical,
            "tenant " + tenant + " ledger does not reconcile with job bills");

    // Gate 5: double-drain determinism — a second server fed the same specs
    // (fresh checkpoint root, so nothing resumes across drains) must emit
    // byte-identical deterministic reports.
    const std::string det1 =
        server.job_reports_json(/*deterministic=*/true).dump();
    {
      ChaosPlan plan2 =
          make_plan(jobs, tenants, seed, sched_active, ckpt_root + "/drain1");
      svc::Server server2(server_opts);
      for (const svc::JobSpec& spec : plan2.specs) server2.submit(spec);
      server2.drain();
      const std::string det2 =
          server2.job_reports_json(/*deterministic=*/true).dump();
      check(!det1.empty() && det1 == det2,
            "deterministic reports differ across double-drain");
    }

    if (!reports_path.empty() &&
        !write_text(reports_path,
                    server.job_reports_json(true).dump_pretty()))
      ++failures;

    fs::remove_all(ckpt_root);
    std::cout << "casp_chaos: " << jobs << " jobs, " << tenants
              << " tenants, seed " << seed << (churn ? " (churn)" : "")
              << " — " << done << " done, " << failed
              << " failed (classified), " << restarts << " restarts, "
              << degraded << " degraded, " << regrown << " regrown, "
              << checksum_rejects << " checksum rejects\n";
    if (failures == 0) {
      std::cout << "CHAOS SOAK: PASS\n";
      return 0;
    }
    std::cerr << "CHAOS SOAK: FAIL (" << failures << " violations)\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::error_code ec;
    fs::remove_all(ckpt_root, ec);
    return 1;
  }
}
