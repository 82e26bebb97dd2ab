#include "svc/jobspec.hpp"

#include <stdexcept>

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

const char* to_string(Pipeline pipeline) {
  return pipeline == Pipeline::kHybrid ? "hybrid" : "hash";
}

Pipeline pipeline_from_string(const std::string& name) {
  if (name == "hash") return Pipeline::kHash;
  if (name == "hybrid") return Pipeline::kHybrid;
  throw InvalidArgument("jobspec: kernel must be \"hash\" or \"hybrid\"");
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

// A member's value as its field's type. Json's own accessors read a value
// of another kind as 0, false or "", and convert a double past the int64
// range with undefined behaviour; a spec must name the key instead.
[[noreturn]] void wrong_type(const std::string& key, const char* type) {
  throw InvalidArgument("jobspec: \"" + key + "\" must be " + type);
}

std::int64_t int_of(const obs::Json& v, const std::string& key) {
  if (v.kind() != obs::Json::Kind::kInt) wrong_type(key, "an integer");
  return v.as_int();
}

double number_of(const obs::Json& v, const std::string& key) {
  if (!v.is_number()) wrong_type(key, "a number");
  return v.as_double();
}

bool bool_of(const obs::Json& v, const std::string& key) {
  if (v.kind() != obs::Json::Kind::kBool) wrong_type(key, "true or false");
  return v.as_bool();
}

const std::string& string_of(const obs::Json& v, const std::string& key) {
  if (!v.is_string()) wrong_type(key, "a string");
  return v.as_string();
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
    if (key == "nrows") p.nrows = int_of(v, key);
    else if (key == "ncols") p.ncols = int_of(v, key);
    else if (key == "nnz_per_col") p.nnz_per_col = number_of(v, key);
    else if (key == "random_values") p.random_values = bool_of(v, key);
    else if (key == "seed") p.seed = static_cast<std::uint64_t>(int_of(v, key));
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
    if (key == "scale") p.scale = static_cast<int>(int_of(v, key));
    else if (key == "edge_factor") p.edge_factor = number_of(v, key);
    else if (key == "a") p.a = number_of(v, key);
    else if (key == "b") p.b = number_of(v, key);
    else if (key == "c") p.c = number_of(v, key);
    else if (key == "d") p.d = number_of(v, key);
    else if (key == "noise") p.noise = bool_of(v, key);
    else if (key == "symmetric") p.symmetric = bool_of(v, key);
    else if (key == "remove_self_loops") p.remove_self_loops = bool_of(v, key);
    else if (key == "random_values") p.random_values = bool_of(v, key);
    else if (key == "seed") p.seed = static_cast<std::uint64_t>(int_of(v, key));
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
    if (key == "n") p.n = int_of(v, key);
    else if (key == "min_family") p.min_family = int_of(v, key);
    else if (key == "max_family") p.max_family = int_of(v, key);
    else if (key == "family_exponent") p.family_exponent = number_of(v, key);
    else if (key == "within_density") p.within_density = number_of(v, key);
    else if (key == "cross_edges_per_node")
      p.cross_edges_per_node = number_of(v, key);
    else if (key == "diagonal") p.diagonal = bool_of(v, key);
    else if (key == "seed") p.seed = static_cast<std::uint64_t>(int_of(v, key));
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
    if (key == "inflation") p.inflation = number_of(v, key);
    else if (key == "prune_threshold") p.prune_threshold = number_of(v, key);
    else if (key == "keep_per_col") p.keep_per_col = int_of(v, key);
    else if (key == "max_iterations")
      p.max_iterations = static_cast<int>(int_of(v, key));
    else if (key == "chaos_threshold") p.chaos_threshold = number_of(v, key);
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
    if (key == "kind") src.kind = kind_from_name(string_of(v, key));
    else if (key == "path") src.path = string_of(v, key);
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
  opts.pipeline = kernel;
  opts.sparse_comm = sparse_comm;
  opts.threads = threads;
  opts.force_batches = force_batches;
  opts.ckpt_job_tag = ckpt_job_tag;
  return opts;
}

vmpi::SupervisorOptions JobSpec::supervisor_options() const {
  vmpi::SupervisorOptions opts;
  // An explicit (possibly disabled) plan: service jobs never pick up
  // CASP_VMPI_FAULTS from the environment.
  opts.faults = fault_spec.empty() ? vmpi::FaultPlan{}
                                   : vmpi::FaultPlan::parse(fault_spec);
  if (max_restarts >= 0)
    opts.max_restarts = max_restarts;
  else if (!supervised())
    opts.max_restarts = 0;
  opts.deadline_ms = deadline_ms;
  return opts;
}

void JobSpec::validate() const {
  if (ranks < 1) throw InvalidArgument("jobspec: ranks must be >= 1");
  if (!Grid3D::valid_shape(ranks, layers))
    throw InvalidArgument(
        "jobspec: (ranks, layers) is not a valid grid (ranks/layers must "
        "be a perfect square)");
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
  j.set("kernel", to_string(kernel));
  j.set("sparse_comm", sparse_comm);
  j.set("threads", threads);
  j.set("force_batches", static_cast<std::int64_t>(force_batches));
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
    if (key == "job_id") spec.job_id = string_of(v, key);
    else if (key == "tenant") spec.tenant = string_of(v, key);
    else if (key == "priority") spec.priority = static_cast<int>(int_of(v, key));
    else if (key == "op") spec.op = job_op_from_string(string_of(v, key));
    else if (key == "a") spec.a = MatrixSource::from_json(v);
    else if (key == "b") spec.b = MatrixSource::from_json(v);
    else if (key == "aat") spec.aat = bool_of(v, key);
    else if (key == "ranks") spec.ranks = static_cast<int>(int_of(v, key));
    else if (key == "layers") spec.layers = static_cast<int>(int_of(v, key));
    else if (key == "memory_bytes")
      spec.memory_bytes = static_cast<Bytes>(int_of(v, key));
    else if (key == "kernel")
      spec.kernel = pipeline_from_string(string_of(v, key));
    else if (key == "sparse_comm") spec.sparse_comm = bool_of(v, key);
    else if (key == "threads") spec.threads = static_cast<int>(int_of(v, key));
    else if (key == "force_batches") spec.force_batches = int_of(v, key);
    else if (key == "ckpt_dir") spec.ckpt_dir = string_of(v, key);
    else if (key == "ckpt_every")
      spec.ckpt_every = static_cast<std::uint64_t>(int_of(v, key));
    else if (key == "ckpt_job_tag") spec.ckpt_job_tag = string_of(v, key);
    else if (key == "mcl") spec.mcl = mcl_from_json(v);
    else if (key == "fault_spec") spec.fault_spec = string_of(v, key);
    else if (key == "max_restarts")
      spec.max_restarts = static_cast<int>(int_of(v, key));
    else if (key == "deadline_ms") spec.deadline_ms = int_of(v, key);
    else if (key == "elastic") spec.elastic = bool_of(v, key);
    else unknown_key("jobspec", key);
  }
  return spec;
}

std::string JobSpec::dump() const { return to_json().dump(); }

JobSpec JobSpec::parse(const std::string& text) {
  obs::Json j;
  try {
    j = obs::Json::parse(text);
  } catch (const std::runtime_error& e) {
    throw InvalidArgument(std::string("jobspec: ") + e.what());
  }
  return from_json(j);
}

}  // namespace casp::svc
