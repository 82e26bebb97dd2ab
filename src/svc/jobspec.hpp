// JobSpec: the one job-description API of the multi-tenant SpGEMM service.
//
// A single plain value type describes a job: the operation, the input
// matrices (files or seeded generators, so a spec is self-contained and two
// runs of the same spec see identical inputs), the grid shape, the memory
// budget, the SUMMA and checkpoint knobs programs set, the fault plan, and
// the supervision policy — plus the service-side identity (tenant,
// priority). Executors derive the library's option structs from it with
// summa_options() and supervisor_options(); non-test callers build a
// JobSpec and derive them (casp_lint rule: jobspec-single-source), and
// every field has a reader outside this file (jobspec-field-has-caller).
//
// Specs round-trip deterministically through obs::Json: to_json() emits
// every field in a fixed order, from_json() is strict (unknown keys throw),
// and to_json(from_json(to_json(s))) is byte-identical to to_json(s).
#pragma once

#include <optional>
#include <string>

#include "apps/mcl.hpp"
#include "common/types.hpp"
#include "gen/er.hpp"
#include "gen/protein.hpp"
#include "gen/rmat.hpp"
#include "obs/json.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/steps.hpp"
#include "vmpi/runtime.hpp"

namespace casp::svc {

/// Operation a job performs on the grid.
enum class JobOp { kSpGemm, kMcl, kTriangleCount };

const char* to_string(JobOp op);
JobOp job_op_from_string(const std::string& name);

/// "hash" / "hybrid", the names of the Pipeline values in specs and on the
/// command line.
const char* to_string(Pipeline pipeline);
Pipeline pipeline_from_string(const std::string& name);

/// Where an input matrix comes from. File sources read Matrix Market;
/// generator sources are fully seeded, so materialize() is deterministic —
/// the property the admission estimate, the JSON round-trip, and the
/// soak's bit-identity comparison all rely on.
struct MatrixSource {
  enum class Kind { kNone, kFile, kEr, kRmat, kProtein };
  Kind kind = Kind::kNone;
  std::string path;       ///< kFile
  ErParams er;            ///< kEr
  RmatParams rmat;        ///< kRmat
  ProteinParams protein;  ///< kProtein

  bool empty() const { return kind == Kind::kNone; }
  /// Load/generate the matrix. Throws InputError on a missing file.
  CscMat materialize() const;

  obs::Json to_json() const;
  static MatrixSource from_json(const obs::Json& j);

  static MatrixSource file(std::string p);
  static MatrixSource er_square(Index n, double nnz_per_col,
                                std::uint64_t seed);
  static MatrixSource rmat_graph(int scale, double edge_factor,
                                 std::uint64_t seed);
  static MatrixSource protein_network(Index n, std::uint64_t seed);
};

/// The unified job description. Plain data only: the non-owning pointers of
/// SummaOptions (memory tracker, checkpointer, symbolic spans) are wired by
/// the executor at run time, never stored here.
struct JobSpec {
  // -- Service identity ----------------------------------------------------
  /// Unique id within a queue; Server::submit assigns "job-<n>" when empty.
  std::string job_id;
  /// Quota/billing bucket. Empty = the default tenant.
  std::string tenant = "default";
  /// Higher runs first; FIFO within a priority.
  int priority = 0;

  // -- Work ----------------------------------------------------------------
  JobOp op = JobOp::kSpGemm;
  MatrixSource a;
  /// SpGEMM only. Empty = square A (or A*Aᵀ when `aat`).
  MatrixSource b;
  /// SpGEMM only: multiply A by its transpose (ignores `b`).
  bool aat = false;

  // -- Grid ----------------------------------------------------------------
  int ranks = 4;
  int layers = 1;

  // -- Memory budget (Eq. 2's M, aggregate over the job's ranks) -----------
  Bytes memory_bytes = 0;  ///< 0 = unlimited (b = 1)

  // -- SUMMA knobs (SummaOptions' value fields that jobs set) ---------------
  /// JSON and --kernel name "hash" (this paper) or "hybrid" (prior work).
  Pipeline kernel = Pipeline::kHash;
  bool sparse_comm = false;
  int threads = 1;
  Index force_batches = 0;

  // -- Checkpoint knobs ----------------------------------------------------
  std::string ckpt_dir;          ///< empty = checkpointing off
  std::uint64_t ckpt_every = 1;  ///< save cadence in batches/iterations

  // -- MCL parameters (JobOp::kMcl only) -----------------------------------
  MclParams mcl;

  // -- Faults + supervision ------------------------------------------------
  /// FaultPlan::parse spec (e.g. "seed=1;crash_rank=2;crash_op=40").
  /// Empty = fault-free: a service job never inherits CASP_VMPI_FAULTS from
  /// the environment — one tenant's chaos experiment must be scoped to its
  /// own jobs.
  std::string fault_spec;
  /// >= 0 turns on supervised restarts with this bound; < 0 runs a single
  /// attempt (a non-empty ckpt_dir also turns supervision on, with the
  /// default bound). Either way the attempt runs through a
  /// vmpi::SupervisionChain, an unsupervised one with no restarts.
  int max_restarts = -1;
  /// Wall-clock budget for the job in milliseconds; 0 = none. Spans the
  /// whole supervised chain (each restart attempt gets what is left).
  /// Enforced cooperatively by the vmpi watchdog: on expiry every rank is
  /// cancelled and the job fails with kind "deadline_exceeded", releasing
  /// its tenant reservation. Not enforced under the deterministic
  /// scheduler (virtual time).
  std::int64_t deadline_ms = 0;
  /// Permit degraded-grid recovery: when a rank dies for good
  /// (permanent_crash, or restarts exhausted), the service re-runs Eq. (2)
  /// admission for the largest survivor grid and finishes there from the
  /// job's checkpoints (ckpt/redistribute.hpp) — bit-identically. Off = a permanent loss fails the job.
  bool elastic = false;

  // -- Option structs derived from the spec --------------------------------
  /// SummaOptions value fields filled from this spec; the pointer fields
  /// (memory, ckpt, symbolic_col_nnz) are left null for the executor.
  SummaOptions summa_options() const;
  /// The restart policy of every attempt: the parsed fault plan (or an
  /// explicitly disabled one, never CASP_VMPI_FAULTS), the deadline, and
  /// max_restarts = 0 unless supervised().
  vmpi::SupervisorOptions supervisor_options() const;
  bool supervised() const { return max_restarts >= 0 || !ckpt_dir.empty(); }

  /// Structural validation (grid shape, operand presence,
  /// parseable fault spec, ...). Throws InvalidArgument naming the field.
  void validate() const;

  obs::Json to_json() const;
  static JobSpec from_json(const obs::Json& j);
  /// Compact deterministic serialization (to_json().dump()).
  std::string dump() const;
  static JobSpec parse(const std::string& text);
};

}  // namespace casp::svc
