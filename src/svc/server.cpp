#include "svc/server.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "apps/triangle.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/error.hpp"
#include "grid/dist.hpp"
#include "grid/grid3d.hpp"
#include "kernels/semiring.hpp"
#include "obs/report.hpp"
#include "summa/batched.hpp"
#include "svc/admission.hpp"
#include "vmpi/faults.hpp"

namespace casp::svc {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kRejected:
      return "rejected";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kThrottled:
      return "throttled";
  }
  return "unknown";
}

Server::Server(ServerOptions options)
    : options_(options),
      pool_(options.pool_ranks),
      busy_(static_cast<std::size_t>(options.pool_ranks), 0) {}

TenantLedger& Server::tenant(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    TenantQuota quota;
    auto qi = options_.quotas.find(name);
    if (qi != options_.quotas.end()) quota = qi->second;
    it = tenants_
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple(name, quota))
             .first;
  }
  return it->second;
}

obs::Json Server::tenant_report(const std::string& name) {
  return tenant(name).report();
}

obs::Json Server::job_reports_json(bool deterministic) const {
  obs::Json arr = obs::Json::array();
  for (const std::string& id : order_) {
    const obs::JobReport& rep = jobs_.at(id)->report;
    arr.push_back(deterministic ? rep.deterministic_json() : rep.to_json());
  }
  return arr;
}

std::string Server::submit(JobSpec spec) {
  spec.validate();
  if (spec.ranks > options_.pool_ranks) {
    std::ostringstream os;
    os << "svc: job wants " << spec.ranks << " ranks but the pool has "
       << options_.pool_ranks;
    throw InvalidArgument(os.str());
  }
  if (spec.job_id.empty())
    spec.job_id = "job-" + std::to_string(next_job_);
  ++next_job_;
  if (jobs_.count(spec.job_id) != 0)
    throw InvalidArgument("svc: duplicate job id \"" + spec.job_id + "\"");

  auto holder = std::make_unique<JobRecord>();
  JobRecord& rec = *holder;
  rec.spec = std::move(spec);
  rec.in_a = rec.spec.a.materialize();
  switch (rec.spec.op) {
    case JobOp::kSpGemm:
      if (rec.spec.aat)
        rec.in_b = rec.in_a.transpose();
      else if (rec.spec.b.empty())
        rec.in_b = rec.in_a;
      else
        rec.in_b = rec.spec.b.materialize();
      break;
    case JobOp::kMcl:
    case JobOp::kTriangleCount:
      if (rec.in_a.nrows() != rec.in_a.ncols())
        throw InvalidArgument(std::string("svc: ") + to_string(rec.spec.op) +
                              " requires a square input matrix");
      if (rec.spec.op == JobOp::kMcl) {
        rec.in_b = rec.in_a;
      } else {
        // The count multiplies L*U, so admission sizes that product and
        // the run reuses the same operands.
        TriangleOperands ops = triangle_operands(rec.in_a);
        rec.in_a = std::move(ops.lower);
        rec.in_b = std::move(ops.upper);
      }
      break;
  }

  const std::string id = rec.spec.job_id;
  jobs_.emplace(id, std::move(holder));
  order_.push_back(id);
  JobRecord& job = *jobs_.at(id);

  // Eq. (2) estimate on a fault-free scratch job (outside the pool).
  AdmissionEstimate est = estimate_admission(job.spec, job.in_a, job.in_b);
  job.admission = est.admission;
  if (!est.fits()) {
    finish(job, JobState::kRejected, est.reason);
    return id;
  }
  job.symbolic = std::move(est.symbolic);
  job.symbolic_grid = {job.spec.ranks, job.spec.layers};
  job.reserved_bytes = reservation_bytes(job.spec, job.admission);
  job.admission.reserved_bytes = job.reserved_bytes;

  TenantLedger& ledger = tenant(job.spec.tenant);
  if (!ledger.within_memory_quota(job.reserved_bytes)) {
    std::ostringstream os;
    os << "svc: reservation " << job.reserved_bytes
       << " B exceeds tenant \"" << job.spec.tenant << "\" memory quota "
       << ledger.quota().memory_bytes << " B";
    finish(job, JobState::kRejected, os.str());
    return id;
  }
  if (throttle_if_exhausted(job)) return id;
  // Take the reservation now when the quota allows; otherwise the job
  // queues unreserved and the scheduler retries as earlier jobs release.
  if (ledger.reserve(job.reserved_bytes)) job.holds_reservation = true;
  queue_.push(id, job.spec.priority, job.spec.deadline_ms);
  return id;
}

bool Server::cancel(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  if (!queue_.remove(job_id)) return false;  // running or already terminal
  finish(*it->second, JobState::kCancelled, "cancelled by client");
  return true;
}

const JobRecord& Server::wait(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end())
    throw InvalidArgument("svc: unknown job id \"" + job_id + "\"");
  run_queue(1, it->second.get());
  return *it->second;
}

void Server::drain() { run_queue(effective_concurrency(), nullptr); }

int Server::effective_concurrency() const {
  int k = std::max(1, options_.concurrency);
#ifdef CASP_VMPI_SCHED
  // One deterministic-scheduler state exists per process; concurrent jobs
  // would share (and corrupt) it. Serialize while a plan is active.
  if (vmpi::SchedPlan::from_env().has_value()) k = 1;
#endif
  return std::min(k, options_.pool_ranks);
}

const JobRecord* Server::find(const std::string& job_id) const {
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

bool Server::throttle_if_exhausted(JobRecord& rec) {
  TenantLedger& ledger = tenant(rec.spec.tenant);
  if (!ledger.traffic_exhausted()) return false;
  std::ostringstream os;
  os << "svc: tenant \"" << rec.spec.tenant << "\" traffic quota exhausted ("
     << ledger.traffic_billed() << " B logical billed >= quota "
     << ledger.quota().traffic_bytes << " B)";
  finish(rec, JobState::kThrottled, os.str());
  return true;
}

namespace {

/// Largest valid grid on at most `avail` ranks, preferring the requested
/// layer count, then the tallest stack that still divides. {0, 0} when not
/// even a 1x1x1 grid fits (avail < 1).
std::pair<int, int> best_grid(int avail, int want_layers) {
  for (int p = avail; p >= 1; --p) {
    if (want_layers >= 1 && want_layers <= p &&
        Grid3D::valid_shape(p, want_layers))
      return {p, want_layers};
    for (int l = std::min(want_layers, p); l >= 1; --l)
      if (Grid3D::valid_shape(p, l)) return {p, l};
  }
  return {0, 0};
}

/// Fold one executed attempt's traffic into the job's cumulative bill (a
/// degraded job pays for the failed full-grid attempt too).
void fold_billing(obs::JobBilling& total, const obs::JobBilling& attempt) {
  total.messages += attempt.messages;
  total.logical_bytes += attempt.logical_bytes;
  total.shipped_bytes += attempt.shipped_bytes;
  total.restarts += attempt.restarts;
  for (const std::string& k : attempt.recovered_failure_kinds)
    total.recovered_failure_kinds.push_back(k);
}

}  // namespace

/// Per-job execution state of the drain loop. One Exec spans all rounds of
/// one job: the grid the next attempt runs on, the cumulative bill and
/// recovery evidence, and — while a ticket
/// is in flight — the round's supervision chain, stepped one attempt at a
/// time so an attempt can be collected and relaunched without blocking the
/// launcher between whole chains.
struct Server::Exec {
  JobRecord* rec = nullptr;
  /// Grid the current round runs on; shrinks after a permanent loss,
  /// regrows after probationers are admitted.
  int run_ranks = 0;
  int run_layers = 0;
  /// Fault kinds that already fired a shrink are disarmed on relaunch — a
  /// permanent crash is one event, not a property of every future attempt.
  std::vector<std::string> disarm;
  /// Per-attempt pause plumbing (kSpGemm regrow path): begin_round arms
  /// attempt_pause before dispatching an attempt that should park after
  /// that many fresh batches (0 = run to completion); rank 0 of the
  /// attempt acknowledges in attempt_paused. Reset every round.
  Index attempt_pause = 0;
  bool attempt_paused = false;
  obs::JobBilling bill;
  obs::RecoveryReport recovery;
  bool track_recovery = false;
  bool shrank = false;
  /// Probationers admitted at this job's pause boundaries, pending the
  /// regrow that folds them into recovery.rejoined_ranks.
  std::vector<int> rejoined;
  int round = 0;

  // In-flight attempt state (valid while ticket != nullptr).
  std::vector<int> members;  ///< pool ranks; members[i] backs job rank i
  vmpi::JobTicketPtr ticket;
  /// This round's restart chain (no restarts for an unsupervised job).
  std::optional<vmpi::SupervisionChain> chain;
};

bool Server::may_regrow(const Exec& e) const {
  const JobSpec& spec = e.rec->spec;
  return options_.auto_rejoin && spec.elastic && e.shrank &&
         spec.op == JobOp::kSpGemm && !spec.ckpt_dir.empty();
}

bool Server::reshape(Exec& e, int ranks, int layers, std::string* why) {
  JobRecord& rec = *e.rec;
  // Every grid change re-runs Eq. (2) admission: the per-process share
  // moves with p, and a budget that fit one shape may not fit another.
  JobSpec shaped = rec.spec;
  shaped.ranks = ranks;
  shaped.layers = layers;
  AdmissionEstimate est = estimate_admission(shaped, rec.in_a, rec.in_b);
  if (!est.fits()) {
    if (why != nullptr) *why = est.reason;
    return false;
  }
  e.track_recovery = true;
  e.run_ranks = ranks;
  e.run_layers = layers;
  rec.symbolic = std::move(est.symbolic);
  rec.symbolic_grid = {ranks, layers};
  // The attempt resumes from the job's checkpoints on the new grid by
  // itself: each rank rebuilds its block of C from the saved pieces'
  // global coordinates (batched_summa3d). MCL's snapshot holds the
  // re-replicated global iterate under a grid-independent id.
  return true;
}

Server::RoundStart Server::begin_round(Exec& e) {
  JobRecord& rec = *e.rec;
  const JobSpec& spec = rec.spec;
  // Every shrink disarms "permanent_crash", so a second round cannot fire
  // it again, and every pause round either admits or strikes a probationer
  // (quarantine bounds the flapping case) — the cap is defense in depth.
  if (e.round >= 8) {
    rec.report.billing = e.bill;
    finish(rec, JobState::kFailed,
           "svc: elastic recovery did not converge within the round cap");
    return RoundStart::kTerminal;
  }
  ++e.round;

  // Schedulable ranks for THIS job: alive and not held by another job's
  // in-flight split (busy_ is launcher-side bookkeeping — see server.hpp).
  // Dead ranks stay resident (they are threads whose death is logical) but
  // are never scheduled onto again. At width 1 avail == alive.
  const std::vector<int> alive = pool_.alive_ranks();
  std::vector<int> avail;
  avail.reserve(alive.size());
  for (const int r : alive)
    if (busy_[static_cast<std::size_t>(r)] == 0) avail.push_back(r);

  if (static_cast<int>(alive.size()) < e.run_ranks) {
    if (!spec.elastic) {
      std::ostringstream os;
      os << "svc: job wants " << e.run_ranks << " ranks but only "
         << alive.size() << " of " << options_.pool_ranks
         << " pool ranks are alive and the job is not elastic";
      finish(rec, JobState::kFailed, os.str());
      return RoundStart::kTerminal;
    }
    if (avail.empty() && !alive.empty()) {
      // Survivors exist but every one of them is on a neighbour's split;
      // shrink once one frees (sizing from avail keeps splits disjoint).
      --e.round;
      return RoundStart::kNoCapacity;
    }
    const auto [p2, l2] =
        best_grid(static_cast<int>(avail.size()), spec.layers);
    if (p2 == 0) {
      finish(rec, JobState::kFailed,
             "svc: no pool ranks left alive to run the job on");
      return RoundStart::kTerminal;
    }
    if (!e.shrank) {
      e.recovery.degraded_from_ranks = e.run_ranks;
      e.recovery.degraded_from_layers = e.run_layers;
    }
    std::string why;
    if (!reshape(e, p2, l2, &why)) {
      std::ostringstream os;
      os << "svc: degraded grid " << p2 << " ranks x " << l2
         << " layers cannot hold the job under its declared budget: " << why;
      finish(rec, JobState::kFailed, os.str());
      return RoundStart::kTerminal;
    }
    e.shrank = true;
    e.recovery.degraded_to_ranks = p2;
    e.recovery.degraded_to_layers = l2;
  } else if (static_cast<int>(avail.size()) < e.run_ranks) {
    // Enough live capacity overall, just busy on other splits right now.
    --e.round;
    return RoundStart::kNoCapacity;
  } else if (may_regrow(e)) {
    // Regrow, symmetric to the shrink above: the best grid on the ranks
    // this job may use (its own split plus idle spares, capped at the
    // spec's width). A reshape refusal keeps the degraded grid — never a
    // failure.
    const auto [gp, gl] = best_grid(
        std::min<int>(static_cast<int>(avail.size()), spec.ranks),
        spec.layers);
    const int from_ranks = e.run_ranks;
    const int from_layers = e.run_layers;
    if (gp > from_ranks && reshape(e, gp, gl, nullptr)) {
      e.recovery.regrown_from_ranks = from_ranks;
      e.recovery.regrown_from_layers = from_layers;
      e.recovery.regrown_to_ranks = gp;
      e.recovery.regrown_to_layers = gl;
      e.recovery.rejoined_ranks = e.rejoined;
    }
  }

  e.members.assign(avail.begin(),
                   avail.begin() + static_cast<std::ptrdiff_t>(e.run_ranks));

  // Arm the cooperative pause when there is a membership change to absorb:
  // a shrunk elastic SpGEMM job with probationers waiting parks after one
  // fresh batch so admit_probationers can run and the next round can
  // regrow. Bounded: each pause is followed by exactly one handshake per
  // probationer, which admits or strikes (quarantine at max_failures).
  e.attempt_pause = 0;
  e.attempt_paused = false;
  if (may_regrow(e) && !pool_.probation_ranks().empty())
    e.attempt_pause = 1;

  vmpi::SupervisorOptions sopts = spec.supervisor_options();
  for (const std::string& kind : e.disarm)
    if (sopts.faults.has_value()) sopts.faults = sopts.faults->disarmed(kind);
  e.chain.emplace(sopts);
  start_attempt(e);
  return RoundStart::kStarted;
}

void Server::start_attempt(Exec& e) {
  // The job world is exactly members.size() ranks wide (members[i] backs
  // world rank i), so the body needs no split dance and fault plans key by
  // job-world rank — identical whichever pool split hosts the attempt. The
  // launcher leaves `e` alone until finish_job has collected the ticket.
  auto body = [this, &e](vmpi::Comm& world) { run_body(e, world); };
  e.ticket = pool_.start_job_on(e.members, body, e.chain->attempt_options());
  for (const int r : e.members) busy_[static_cast<std::size_t>(r)] = 1;
}

void Server::complete_attempt(Exec& e) {
  JobRecord& rec = *e.rec;
  const JobSpec& spec = rec.spec;
  vmpi::RunResult attempt = pool_.finish_job(e.ticket);
  e.ticket = nullptr;
  for (const int r : e.members) busy_[static_cast<std::size_t>(r)] = 0;

  // A recoverable failure within budget relaunches on the same members
  // (the chain has disarmed the fault and slept the backoff ladder).
  if (e.chain->absorb(std::move(attempt))) {
    start_attempt(e);
    return;
  }
  // Chain over: fold its accounting into the job. An unsupervised job's
  // chain ran one attempt, and its report has no recovery section unless
  // the job shrank.
  vmpi::SupervisedResult& sup = e.chain->result();
  obs::JobBilling abill = obs::bill_traffic(sup.result);
  if (spec.supervised()) {
    e.track_recovery = true;
    e.recovery.restarts += sup.restarts;
    e.recovery.max_restarts = sup.max_restarts;
    e.recovery.wasted_seconds += sup.wasted_seconds;
    for (const vmpi::FailureReport& f : sup.recovered_failures)
      e.recovery.failure_kinds.push_back(f.kind);
    for (const std::int64_t us : sup.backoff_us)
      e.recovery.backoff_us.push_back(us);
    for (const std::int64_t us : sup.backoff_plan_us)
      e.recovery.backoff_plan_us.push_back(us);
    abill.restarts = sup.restarts;
    for (const vmpi::FailureReport& f : sup.recovered_failures)
      abill.recovered_failure_kinds.push_back(f.kind);
    rec.report.run = obs::build_report(sup);
  } else {
    rec.report.run = obs::build_report(sup.result);
  }
  vmpi::RunResult res = std::move(sup.result);
  tenant(spec.tenant).bill(abill, res);
  fold_billing(e.bill, abill);

  if (!res.failed()) {
    // A clean run vouches for every rank that took part: watchdog
    // suspicion (no-culprit deadlock verdicts) does not outlive it.
    pool_.clear_suspects();
    if (e.attempt_paused) {
      // Parked at a batch boundary for a membership change: handshake the
      // probationers now, then take the regrow decision at the top of the
      // next round. The forced checkpoint carries the emitted prefix.
      const std::vector<int> admitted =
          pool_.admit_probationers(options_.membership);
      e.rejoined.insert(e.rejoined.end(), admitted.begin(), admitted.end());
      begin_round(e);
      return;
    }
    // A job boundary is a membership absorb point too: when the attempt ran
    // to completion without hitting a pause boundary (e.g. its checkpoints
    // already covered every batch), waiting probationers still get their
    // handshake here, so a flapper keeps accruing strikes toward quarantine
    // and a healthy replacement is whole again for the next job.
    if (options_.auto_rejoin) pool_.admit_probationers(options_.membership);
    finish_run(e, std::move(res), JobState::kDone, "");
    return;
  }

  const std::string kind = res.failure->kind;
  if (kind == "permanent_crash") {
    // The culprit rank is a JOB-world rank (fault plans arm on the job
    // world); map it through members to the pool rank that hosted it.
    const int jr = res.failure->rank;
    const int culprit =
        jr >= 0 && jr < static_cast<int>(e.members.size())
            ? e.members[static_cast<std::size_t>(jr)]
            : jr;
    pool_.mark_dead(culprit);
    e.recovery.dead_ranks.push_back(culprit);
    e.track_recovery = true;
    // Self-healing: the dead rank's replacement immediately asks back in
    // (kDead -> kProbation); it earns kAlive at a pause boundary.
    if (options_.auto_rejoin) pool_.request_rejoin(culprit);
  } else if (kind == "deadlock" && res.failure->rank < 0) {
    // A watchdog verdict without a culprit taints every participant.
    for (const int r : e.members) pool_.mark_suspect(r);
  }
  const bool retryable =
      spec.elastic && kind == "permanent_crash" && pool_.alive_count() >= 1;
  if (!retryable) {
    const std::string why = res.failure->describe();
    finish_run(e, std::move(res), JobState::kFailed, why);
    return;
  }
  e.recovery.failure_kinds.push_back(kind);
  e.disarm.push_back(kind);
  // Next round: if enough of this job's ranks remain, it re-runs at full
  // width. Only when the survivors cannot fill the requested width does
  // the round-top shrink path re-run admission for a smaller grid. Either
  // way the attempt resumes from the job's checkpoints.
  begin_round(e);
}

void Server::finish_run(Exec& e, vmpi::RunResult&& res, JobState state,
                        std::string reason) {
  JobRecord& rec = *e.rec;
  if (e.track_recovery) {
    // Keep the final attempt's resumed_generation; everything else
    // aggregates over the whole chain (including prior grids).
    std::optional<obs::RecoveryReport>& sealed = rec.report.run->recovery;
    if (sealed.has_value())
      e.recovery.resumed_generation = sealed->resumed_generation;
    sealed = e.recovery;
  }
  rec.report.billing = e.bill;
  rec.run_result = std::move(res);
  finish(rec, state, std::move(reason));
}

void Server::run_queue(int width, const JobRecord* until) {
  // Up to `width` jobs in flight on disjoint splits. Dispatch order is the
  // queue's EDF-over-priority order; collection is oldest-dispatch-first.
  // Both depend only on launcher-visible state, so the loop schedules
  // identically on every run of the same submission sequence. At width 1
  // nothing parks (a job's own ranks are freed before its next round), so
  // jobs run strictly one at a time in queue order.
  std::vector<std::unique_ptr<Exec>> active;  ///< ticket in flight
  std::vector<std::unique_ptr<Exec>> parked;  ///< waiting for a free split
  for (;;) {
    if (until != nullptr && until->terminal() && active.empty() &&
        parked.empty())
      return;
    bool progressed = false;
    // Refill: parked execs first (oldest first), then the queue.
    for (std::size_t i = 0;
         i < parked.size() && static_cast<int>(active.size()) < width;) {
      const RoundStart s = begin_round(*parked[i]);
      if (s == RoundStart::kNoCapacity) {
        ++i;
        continue;
      }
      if (s == RoundStart::kStarted) active.push_back(std::move(parked[i]));
      parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(i));
      progressed = true;
    }
    std::vector<std::string> deferred;
    while (static_cast<int>(active.size()) < width && !queue_.empty()) {
      const std::string id = queue_.pop();
      JobRecord& rec = *jobs_.at(id);
      if (throttle_if_exhausted(rec)) {
        progressed = true;
        continue;  // other tenants' jobs keep going
      }
      if (!rec.holds_reservation) {
        if (tenant(rec.spec.tenant).reserve(rec.reserved_bytes)) {
          rec.holds_reservation = true;
        } else {
          deferred.push_back(id);
          continue;
        }
      }
      rec.state = JobState::kRunning;
      auto e = std::make_unique<Exec>();
      e->rec = &rec;
      e->run_ranks = rec.spec.ranks;
      e->run_layers = rec.spec.layers;
      const RoundStart s = begin_round(*e);
      if (s == RoundStart::kStarted) {
        active.push_back(std::move(e));
        progressed = true;
      } else if (s == RoundStart::kNoCapacity) {
        parked.push_back(std::move(e));
      } else {
        progressed = true;  // terminal at the round top
      }
    }
    for (const std::string& id : deferred)
      queue_.push(id, jobs_.at(id)->spec.priority,
                  jobs_.at(id)->spec.deadline_ms);

    if (!active.empty()) {
      // Collect the oldest dispatch. Its chain restarts / pause-regrow
      // rounds re-ticket inside complete_attempt; a kNoCapacity round
      // parks it until a neighbour's split frees.
      complete_attempt(*active.front());
      Exec& front = *active.front();
      if (front.rec->terminal()) {
        active.erase(active.begin());
      } else if (front.ticket == nullptr) {
        parked.push_back(std::move(active.front()));
        active.erase(active.begin());
      }
      continue;
    }

    if (!parked.empty()) {
      // Defensive: with every slot idle a parked job must either start or
      // reach a terminal state at begin_round, so this is unreachable —
      // fail loudly rather than spin.
      for (auto& pe : parked)
        finish(*pe->rec, JobState::kFailed,
               "svc: no pool ranks left alive to run the job on");
      parked.clear();
      progressed = true;
    }
    if (queue_.empty()) return;
    if (!progressed) {
      // Every queued job is reservation-blocked and nothing is running:
      // every reservation is held by a queued job, so these can never be
      // satisfied.
      while (!queue_.empty()) {
        const std::string id = queue_.pop();
        finish(*jobs_.at(id), JobState::kRejected,
               "svc: reservation cannot be satisfied under the tenant's "
               "memory quota");
      }
      return;
    }
  }
}

void Server::run_body(Exec& e, vmpi::Comm& world) {
  JobRecord& rec = *e.rec;
  const JobSpec& spec = rec.spec;
  // Enforce each rank's share of the declared aggregate budget, exactly
  // like the standalone CLIs (Symbolic3D only estimates; adaptive
  // re-batching recovers when the estimate is wrong).
  MemoryTracker tracker(
      spec.memory_bytes == 0
          ? 0
          : std::max<Bytes>(1, spec.memory_bytes /
                                   static_cast<Bytes>(world.size())));
  vmpi::arm_alloc_faults(world, tracker);
  SummaOptions opts = spec.summa_options();
  if (spec.memory_bytes != 0) opts.memory = &tracker;
  ckpt::Checkpointer ck;
  if (!spec.ckpt_dir.empty()) {
    ck = ckpt::Checkpointer(spec.ckpt_dir, world.rank(), spec.ckpt_every,
                            &world.recorder());
    opts.ckpt = &ck;
  }
  Grid3D grid(world, e.run_layers);
  // Admission already ran Symbolic3D on this grid: lend this rank's result
  // so the SpGEMM inside the job does not repeat it. MCL keeps its own
  // pass per iteration (its operand changes).
  const SymbolicResult* sized =
      rec.symbolic_grid == std::pair{e.run_ranks, e.run_layers}
          ? &rec.symbolic[static_cast<std::size_t>(world.rank())]
          : nullptr;
  switch (spec.op) {
    case JobOp::kSpGemm: {
      opts.symbolic = sized;
      opts.pause_after_batches = e.attempt_pause;
      const DistMat3D da = distribute_a_style(grid, rec.in_a);
      const DistMat3D db = distribute_b_style(grid, rec.in_b);
      // Each rank keeps its batch pieces where they land, so no rank
      // concatenates C: rank 0 assembles it from every rank's pieces.
      std::vector<PlacedBlock> pieces;
      const BatchedResult r = batched_summa3d<PlusTimes>(
          grid, da, db, spec.memory_bytes, opts,
          [&pieces](CscMat&& piece, const BatchInfo& at) {
            pieces.push_back({std::move(piece),
                              {at.global_rows.start, at.global_cols.start}});
          },
          /*keep_output=*/false);
      if (r.paused) {
        // Parked at a batch boundary (r.paused is SPMD-consistent, so
        // every rank skips the gather together); the forced checkpoint
        // carries the emitted prefix to the resumed attempt.
        if (world.rank() == 0) e.attempt_paused = true;
        break;
      }
      // Only rank 0 assembles C; the others send their pieces and move on.
      CscMat full = gather_dist(grid, rec.in_a.nrows(), rec.in_b.ncols(),
                                pieces, /*root=*/0);
      if (world.rank() == 0) {
        rec.c = std::move(full);
        rec.batches = r.batches;
        rec.final_batches = r.final_batches;
      }
      break;
    }
    case JobOp::kMcl: {
      MclResult r = mcl_cluster_distributed(grid, rec.in_a, spec.mcl,
                                            spec.memory_bytes, opts);
      if (world.rank() == 0) rec.mcl = std::move(r);
      break;
    }
    case JobOp::kTriangleCount: {
      opts.symbolic = sized;
      const Index t = count_triangles_lu(grid, rec.in_a, rec.in_b,
                                         spec.memory_bytes, opts);
      if (world.rank() == 0) rec.triangles = t;
      break;
    }
  }
}

void Server::finish(JobRecord& rec, JobState state, std::string reason) {
  release_reservation(rec);
  rec.symbolic = {};
  rec.state = state;
  rec.reason = reason;
  obs::JobReport& rep = rec.report;
  rep.job_id = rec.spec.job_id;
  rep.tenant = rec.spec.tenant;
  rep.op = to_string(rec.spec.op);
  rep.priority = rec.spec.priority;
  rep.state = to_string(state);
  rep.reason = std::move(reason);
  rep.admission = rec.admission;
  tenant(rec.spec.tenant).count_job(rep.state);
}

void Server::release_reservation(JobRecord& rec) {
  if (!rec.holds_reservation) return;
  tenant(rec.spec.tenant).release(rec.reserved_bytes);
  rec.holds_reservation = false;
}

}  // namespace casp::svc
