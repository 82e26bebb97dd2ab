#include "svc/jobspec.hpp"

#include "common/error.hpp"
#include "grid/grid3d.hpp"
#include "sparse/mm_io.hpp"
#include "vmpi/faults.hpp"

namespace casp::svc {

const char* to_string(JobOp op) {
  switch (op) {
    case JobOp::kSpGemm:
      return "spgemm";
    case JobOp::kMcl:
      return "mcl";
    case JobOp::kTriangleCount:
      return "triangle";
  }
  return "spgemm";
}

JobOp job_op_from_string(const std::string& name) {
  if (name == "spgemm") return JobOp::kSpGemm;
  if (name == "mcl") return JobOp::kMcl;
  if (name == "triangle") return JobOp::kTriangleCount;
  throw InvalidArgument("jobspec: unknown op \"" + name +
                        "\" (spgemm|mcl|triangle)");
}

namespace {

const char* kind_name(MatrixSource::Kind kind) {
  switch (kind) {
    case MatrixSource::Kind::kNone:
      return "none";
    case MatrixSource::Kind::kFile:
      return "file";
    case MatrixSource::Kind::kEr:
      return "er";
    case MatrixSource::Kind::kRmat:
      return "rmat";
    case MatrixSource::Kind::kProtein:
      return "protein";
  }
  return "none";
}

MatrixSource::Kind kind_from_name(const std::string& name) {
  if (name == "none") return MatrixSource::Kind::kNone;
  if (name == "file") return MatrixSource::Kind::kFile;
  if (name == "er") return MatrixSource::Kind::kEr;
  if (name == "rmat") return MatrixSource::Kind::kRmat;
  if (name == "protein") return MatrixSource::Kind::kProtein;
  throw InvalidArgument("jobspec: unknown matrix source kind \"" + name +
                        "\"");
}

[[noreturn]] void unknown_key(const char* where, const std::string& key) {
  throw InvalidArgument(std::string("jobspec: unknown key \"") + key +
                        "\" in " + where);
}

void expect_object(const obs::Json& j, const char* where) {
  if (!j.is_object())
    throw InvalidArgument(std::string("jobspec: ") + where +
                          " must be a JSON object");
}

obs::Json er_json(const ErParams& p) {
  obs::Json j = obs::Json::object();
  j.set("nrows", static_cast<std::int64_t>(p.nrows));
  j.set("ncols", static_cast<std::int64_t>(p.ncols));
  j.set("nnz_per_col", p.nnz_per_col);
  j.set("random_values", p.random_values);
  j.set("seed", p.seed);
  return j;
}

ErParams er_from_json(const obs::Json& j) {
  expect_object(j, "er params");
  ErParams p;
  for (const auto& [key, v] : j.members()) {
    if (key == "nrows") p.nrows = v.as_int();
    else if (key == "ncols") p.ncols = v.as_int();
    else if (key == "nnz_per_col") p.nnz_per_col = v.as_double();
    else if (key == "random_values") p.random_values = v.as_bool();
    else if (key == "seed") p.seed = static_cast<std::uint64_t>(v.as_int());
    else unknown_key("er params", key);
  }
  return p;
}

obs::Json rmat_json(const RmatParams& p) {
  obs::Json j = obs::Json::object();
  j.set("scale", p.scale);
  j.set("edge_factor", p.edge_factor);
  j.set("a", p.a);
  j.set("b", p.b);
  j.set("c", p.c);
  j.set("d", p.d);
  j.set("noise", p.noise);
  j.set("symmetric", p.symmetric);
  j.set("remove_self_loops", p.remove_self_loops);
  j.set("random_values", p.random_values);
  j.set("seed", p.seed);
  return j;
}

RmatParams rmat_from_json(const obs::Json& j) {
  expect_object(j, "rmat params");
  RmatParams p;
  for (const auto& [key, v] : j.members()) {
    if (key == "scale") p.scale = static_cast<int>(v.as_int());
    else if (key == "edge_factor") p.edge_factor = v.as_double();
    else if (key == "a") p.a = v.as_double();
    else if (key == "b") p.b = v.as_double();
    else if (key == "c") p.c = v.as_double();
    else if (key == "d") p.d = v.as_double();
    else if (key == "noise") p.noise = v.as_bool();
    else if (key == "symmetric") p.symmetric = v.as_bool();
    else if (key == "remove_self_loops") p.remove_self_loops = v.as_bool();
    else if (key == "random_values") p.random_values = v.as_bool();
    else if (key == "seed") p.seed = static_cast<std::uint64_t>(v.as_int());
    else unknown_key("rmat params", key);
  }
  return p;
}

obs::Json protein_json(const ProteinParams& p) {
  obs::Json j = obs::Json::object();
  j.set("n", static_cast<std::int64_t>(p.n));
  j.set("min_family", static_cast<std::int64_t>(p.min_family));
  j.set("max_family", static_cast<std::int64_t>(p.max_family));
  j.set("family_exponent", p.family_exponent);
  j.set("within_density", p.within_density);
  j.set("cross_edges_per_node", p.cross_edges_per_node);
  j.set("diagonal", p.diagonal);
  j.set("seed", p.seed);
  return j;
}

ProteinParams protein_from_json(const obs::Json& j) {
  expect_object(j, "protein params");
  ProteinParams p;
  for (const auto& [key, v] : j.members()) {
    if (key == "n") p.n = v.as_int();
    else if (key == "min_family") p.min_family = v.as_int();
    else if (key == "max_family") p.max_family = v.as_int();
    else if (key == "family_exponent") p.family_exponent = v.as_double();
    else if (key == "within_density") p.within_density = v.as_double();
    else if (key == "cross_edges_per_node")
      p.cross_edges_per_node = v.as_double();
    else if (key == "diagonal") p.diagonal = v.as_bool();
    else if (key == "seed") p.seed = static_cast<std::uint64_t>(v.as_int());
    else unknown_key("protein params", key);
  }
  return p;
}

obs::Json mcl_json(const MclParams& p) {
  obs::Json j = obs::Json::object();
  j.set("inflation", p.inflation);
  j.set("prune_threshold", p.prune_threshold);
  j.set("keep_per_col", static_cast<std::int64_t>(p.keep_per_col));
  j.set("max_iterations", p.max_iterations);
  j.set("chaos_threshold", p.chaos_threshold);
  return j;
}

MclParams mcl_from_json(const obs::Json& j) {
  expect_object(j, "mcl params");
  MclParams p;
  for (const auto& [key, v] : j.members()) {
    if (key == "inflation") p.inflation = v.as_double();
    else if (key == "prune_threshold") p.prune_threshold = v.as_double();
    else if (key == "keep_per_col") p.keep_per_col = v.as_int();
    else if (key == "max_iterations")
      p.max_iterations = static_cast<int>(v.as_int());
    else if (key == "chaos_threshold") p.chaos_threshold = v.as_double();
    else unknown_key("mcl params", key);
  }
  return p;
}

}  // namespace

CscMat MatrixSource::materialize() const {
  switch (kind) {
    case Kind::kNone:
      throw InvalidArgument("jobspec: cannot materialize an empty source");
    case Kind::kFile:
      // casp-lint: allow(no-triple-gather) — an input file, not blocks
      return CscMat::from_triples(read_matrix_market_file(path));
    case Kind::kEr:
      return generate_er(er);
    case Kind::kRmat:
      return generate_rmat(rmat);
    case Kind::kProtein:
      return generate_protein_similarity(protein).mat;
  }
  throw InvalidArgument("jobspec: unknown matrix source kind");
}

obs::Json MatrixSource::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("kind", kind_name(kind));
  switch (kind) {
    case Kind::kNone:
      break;
    case Kind::kFile:
      j.set("path", path);
      break;
    case Kind::kEr:
      j.set("er", er_json(er));
      break;
    case Kind::kRmat:
      j.set("rmat", rmat_json(rmat));
      break;
    case Kind::kProtein:
      j.set("protein", protein_json(protein));
      break;
  }
  return j;
}

MatrixSource MatrixSource::from_json(const obs::Json& j) {
  expect_object(j, "matrix source");
  MatrixSource src;
  for (const auto& [key, v] : j.members()) {
    if (key == "kind") src.kind = kind_from_name(v.as_string());
    else if (key == "path") src.path = v.as_string();
    else if (key == "er") src.er = er_from_json(v);
    else if (key == "rmat") src.rmat = rmat_from_json(v);
    else if (key == "protein") src.protein = protein_from_json(v);
    else unknown_key("matrix source", key);
  }
  return src;
}

MatrixSource MatrixSource::file(std::string p) {
  MatrixSource src;
  src.kind = Kind::kFile;
  src.path = std::move(p);
  return src;
}

MatrixSource MatrixSource::er_square(Index n, double nnz_per_col,
                                     std::uint64_t seed) {
  MatrixSource src;
  src.kind = Kind::kEr;
  src.er.nrows = n;
  src.er.ncols = n;
  src.er.nnz_per_col = nnz_per_col;
  src.er.seed = seed;
  return src;
}

MatrixSource MatrixSource::rmat_graph(int scale, double edge_factor,
                                      std::uint64_t seed) {
  MatrixSource src;
  src.kind = Kind::kRmat;
  src.rmat.scale = scale;
  src.rmat.edge_factor = edge_factor;
  src.rmat.seed = seed;
  return src;
}

MatrixSource MatrixSource::protein_network(Index n, std::uint64_t seed) {
  MatrixSource src;
  src.kind = Kind::kProtein;
  src.protein.n = n;
  src.protein.seed = seed;
  return src;
}

SummaOptions JobSpec::summa_options() const {
  SummaOptions opts;
  if (kernel == "hybrid") {
    opts.local_kind = SpGemmKind::kHybrid;
    opts.merge_kind = MergeKind::kSortedHeap;
  } else {
    opts.local_kind = SpGemmKind::kUnsortedHash;
    opts.merge_kind = MergeKind::kUnsortedHash;
  }
  opts.sort_final = sort_final;
  opts.sparse_comm = sparse_comm;
  opts.threads = threads;
  opts.force_batches = force_batches;
  opts.adaptive_rebatch = adaptive_rebatch;
  opts.ckpt_job_tag = ckpt_job_tag;
  return opts;
}

vmpi::RunOptions JobSpec::run_options() const {
  vmpi::RunOptions opts;
  // An explicit (possibly disabled) plan: service jobs never pick up
  // CASP_VMPI_FAULTS from the environment.
  opts.faults = fault_spec.empty() ? vmpi::FaultPlan{}
                                   : vmpi::FaultPlan::parse(fault_spec);
  opts.capture_failure = true;
  opts.deadline_ms = deadline_ms;
  return opts;
}

vmpi::SupervisorOptions JobSpec::supervisor_options() const {
  vmpi::SupervisorOptions opts;
  opts.faults = fault_spec.empty() ? vmpi::FaultPlan{}
                                   : vmpi::FaultPlan::parse(fault_spec);
  if (max_restarts >= 0) opts.max_restarts = max_restarts;
  opts.deadline_ms = deadline_ms;
  return opts;
}

void JobSpec::validate() const {
  if (ranks < 1) throw InvalidArgument("jobspec: ranks must be >= 1");
  if (!Grid3D::valid_shape(ranks, layers))
    throw InvalidArgument(
        "jobspec: (ranks, layers) is not a valid grid (ranks/layers must "
        "be a perfect square)");
  if (kernel != "hash" && kernel != "hybrid")
    throw InvalidArgument("jobspec: kernel must be \"hash\" or \"hybrid\"");
  if (a.empty())
    throw InvalidArgument("jobspec: input matrix source `a` is required");
  if (aat && op != JobOp::kSpGemm)
    throw InvalidArgument("jobspec: aat applies to spgemm jobs only");
  if (!b.empty() && op != JobOp::kSpGemm)
    throw InvalidArgument("jobspec: operand `b` applies to spgemm jobs only");
  if (aat && !b.empty())
    throw InvalidArgument("jobspec: aat and an explicit `b` are exclusive");
  if (threads < 1) throw InvalidArgument("jobspec: threads must be >= 1");
  if (force_batches < 0)
    throw InvalidArgument("jobspec: force_batches must be >= 0");
  if (ckpt_every == 0)
    throw InvalidArgument("jobspec: ckpt_every must be >= 1");
  if (op == JobOp::kMcl) {
    if (mcl.inflation <= 0)
      throw InvalidArgument("jobspec: mcl inflation must be > 0");
    if (mcl.max_iterations < 1)
      throw InvalidArgument("jobspec: mcl max_iterations must be >= 1");
  }
  if (deadline_ms < 0)
    throw InvalidArgument("jobspec: deadline_ms must be >= 0");
  if (!fault_spec.empty()) {
    // Parse for the error only: a typoed plan must fail at submit, not
    // silently run fault-free at execution.
    (void)vmpi::FaultPlan::parse(fault_spec);
  }
}

obs::Json JobSpec::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("job_id", job_id);
  j.set("tenant", tenant);
  j.set("priority", priority);
  j.set("op", to_string(op));
  j.set("a", a.to_json());
  j.set("b", b.to_json());
  j.set("aat", aat);
  j.set("ranks", ranks);
  j.set("layers", layers);
  j.set("memory_bytes", memory_bytes);
  j.set("kernel", kernel);
  j.set("sort_final", sort_final);
  j.set("sparse_comm", sparse_comm);
  j.set("threads", threads);
  j.set("force_batches", static_cast<std::int64_t>(force_batches));
  j.set("adaptive_rebatch", adaptive_rebatch);
  j.set("ckpt_dir", ckpt_dir);
  j.set("ckpt_every", ckpt_every);
  j.set("ckpt_job_tag", ckpt_job_tag);
  j.set("mcl", mcl_json(mcl));
  j.set("fault_spec", fault_spec);
  j.set("max_restarts", max_restarts);
  j.set("deadline_ms", deadline_ms);
  j.set("elastic", elastic);
  return j;
}

JobSpec JobSpec::from_json(const obs::Json& j) {
  expect_object(j, "jobspec");
  JobSpec spec;
  for (const auto& [key, v] : j.members()) {
    if (key == "job_id") spec.job_id = v.as_string();
    else if (key == "tenant") spec.tenant = v.as_string();
    else if (key == "priority") spec.priority = static_cast<int>(v.as_int());
    else if (key == "op") spec.op = job_op_from_string(v.as_string());
    else if (key == "a") spec.a = MatrixSource::from_json(v);
    else if (key == "b") spec.b = MatrixSource::from_json(v);
    else if (key == "aat") spec.aat = v.as_bool();
    else if (key == "ranks") spec.ranks = static_cast<int>(v.as_int());
    else if (key == "layers") spec.layers = static_cast<int>(v.as_int());
    else if (key == "memory_bytes")
      spec.memory_bytes = static_cast<Bytes>(v.as_int());
    else if (key == "kernel") spec.kernel = v.as_string();
    else if (key == "sort_final") spec.sort_final = v.as_bool();
    else if (key == "sparse_comm") spec.sparse_comm = v.as_bool();
    else if (key == "threads") spec.threads = static_cast<int>(v.as_int());
    else if (key == "force_batches") spec.force_batches = v.as_int();
    else if (key == "adaptive_rebatch") spec.adaptive_rebatch = v.as_bool();
    else if (key == "ckpt_dir") spec.ckpt_dir = v.as_string();
    else if (key == "ckpt_every")
      spec.ckpt_every = static_cast<std::uint64_t>(v.as_int());
    else if (key == "ckpt_job_tag") spec.ckpt_job_tag = v.as_string();
    else if (key == "mcl") spec.mcl = mcl_from_json(v);
    else if (key == "fault_spec") spec.fault_spec = v.as_string();
    else if (key == "max_restarts")
      spec.max_restarts = static_cast<int>(v.as_int());
    else if (key == "deadline_ms") spec.deadline_ms = v.as_int();
    else if (key == "elastic") spec.elastic = v.as_bool();
    else unknown_key("jobspec", key);
  }
  return spec;
}

std::string JobSpec::dump() const { return to_json().dump(); }

JobSpec JobSpec::parse(const std::string& text) {
  return from_json(obs::Json::parse(text));
}

}  // namespace casp::svc
