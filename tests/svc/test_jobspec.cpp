// JobSpec: the unified job-description value type. Deterministic JSON
// round-trip (byte-identical dump after parse), strict parsing, structural
// validation, and the thin views over the legacy option structs.
#include <gtest/gtest.h>

#include <array>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "svc/jobspec.hpp"

namespace casp::svc {
namespace {

JobSpec full_spec() {
  JobSpec s;
  s.job_id = "j1";
  s.tenant = "acme";
  s.priority = 3;
  s.op = JobOp::kMcl;
  s.a = MatrixSource::er_square(32, 3.0, 5);
  s.ranks = 4;
  s.layers = 1;
  s.memory_bytes = 1 << 20;
  s.kernel = Pipeline::kHybrid;
  s.sparse_comm = true;
  s.threads = 2;
  s.force_batches = 2;
  s.ckpt_dir = "/tmp/ckpt";
  s.ckpt_every = 2;
  s.ckpt_job_tag = "tag";
  s.mcl.inflation = 2.5;
  s.mcl.prune_threshold = 1e-5;
  s.mcl.keep_per_col = 40;
  s.mcl.max_iterations = 7;
  s.fault_spec = "seed=2;crash_rank=1;crash_op=9";
  s.max_restarts = 2;
  return s;
}

TEST(JobSpec, JsonRoundTripIsByteIdentical) {
  const JobSpec s = full_spec();
  const std::string once = s.dump();
  const std::string twice = JobSpec::parse(once).dump();
  EXPECT_EQ(once, twice);
  // And again through the Json object API.
  EXPECT_EQ(JobSpec::from_json(s.to_json()).to_json().dump(), once);
}

TEST(JobSpec, RoundTripPreservesEveryField) {
  const JobSpec s = full_spec();
  const JobSpec r = JobSpec::parse(s.dump());
  EXPECT_EQ(r.job_id, "j1");
  EXPECT_EQ(r.tenant, "acme");
  EXPECT_EQ(r.priority, 3);
  EXPECT_EQ(r.op, JobOp::kMcl);
  EXPECT_EQ(r.a.kind, MatrixSource::Kind::kEr);
  EXPECT_EQ(r.a.er.nrows, 32);
  EXPECT_TRUE(r.b.empty());
  EXPECT_EQ(r.memory_bytes, Bytes{1} << 20);
  EXPECT_EQ(r.kernel, Pipeline::kHybrid);
  EXPECT_TRUE(r.sparse_comm);
  EXPECT_EQ(r.threads, 2);
  EXPECT_EQ(r.force_batches, 2);
  EXPECT_EQ(r.ckpt_dir, "/tmp/ckpt");
  EXPECT_EQ(r.ckpt_every, 2u);
  EXPECT_EQ(r.ckpt_job_tag, "tag");
  EXPECT_DOUBLE_EQ(r.mcl.inflation, 2.5);
  EXPECT_EQ(r.mcl.keep_per_col, 40);
  EXPECT_EQ(r.fault_spec, "seed=2;crash_rank=1;crash_op=9");
  EXPECT_EQ(r.max_restarts, 2);
}

TEST(JobSpec, StrictParseRejectsUnknownKeys) {
  EXPECT_THROW(JobSpec::parse(R"({"bogus": 1})"), InvalidArgument);
  // The stage schedule always prefetches; the old toggle is not a key.
  EXPECT_THROW(JobSpec::parse(R"({"pipeline": false})"), InvalidArgument);
  EXPECT_THROW(JobSpec::parse(R"({"a": {"kind": "er", "er": {"zzz": 1}}})"),
               InvalidArgument);
}

TEST(JobSpec, RemovedKnobsAndUnknownKernelsAreRefusedNamingTheKey) {
  // sort_final and adaptive_rebatch were fields no program set; the two
  // pipelines are the only kernels.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"sort_final": true})", "sort_final"},
      {R"({"adaptive_rebatch": false})", "adaptive_rebatch"},
      {R"({"kernel": "bogus"})", "kernel"},
      {R"({"kernel": "Hash"})", "kernel"}};
  for (const auto& [text, key] : cases) {
    try {
      (void)JobSpec::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(JobSpec::parse(R"({"kernel": "hybrid"})").kernel,
            Pipeline::kHybrid);
}

TEST(JobSpec, StrictParseRejectsValuesOfTheWrongType) {
  // Each field reads one JSON type; any other names the key.
  for (const char* text :
       {R"({"ranks": "4"})", R"({"ranks": 4.0})", R"({"ranks": 1e300})",
        R"({"memory_bytes": true})", R"({"aat": 1})", R"({"tenant": 5})",
        R"({"a": {"kind": "er", "er": {"nnz_per_col": "3"}}})"})
    EXPECT_THROW(JobSpec::parse(text), InvalidArgument) << text;
  // A number field takes an integer literal.
  const JobSpec three =
      JobSpec::parse(R"({"a": {"kind": "er", "er": {"nnz_per_col": 3}}})");
  EXPECT_EQ(three.a.er.nnz_per_col, 3.0);
}

TEST(JobSpec, ValidateCatchesStructuralErrors) {
  JobSpec ok;
  ok.a = MatrixSource::er_square(16, 2.0, 1);
  ok.ranks = 4;
  ok.layers = 1;
  EXPECT_NO_THROW(ok.validate());

  JobSpec s = ok;
  s.ranks = 6;  // ranks/layers must form a square grid
  EXPECT_THROW(s.validate(), InvalidArgument);

  s = ok;
  s.a = MatrixSource{};  // no input operand
  EXPECT_THROW(s.validate(), InvalidArgument);

  s = ok;
  s.aat = true;
  s.b = MatrixSource::er_square(16, 2.0, 2);  // aat and b are exclusive
  EXPECT_THROW(s.validate(), InvalidArgument);

  s = ok;
  s.op = JobOp::kMcl;
  s.b = MatrixSource::er_square(16, 2.0, 2);  // b is SpGEMM-only
  EXPECT_THROW(s.validate(), InvalidArgument);

  s = ok;
  s.threads = 0;
  EXPECT_THROW(s.validate(), InvalidArgument);

  s = ok;
  s.op = JobOp::kMcl;
  s.mcl.inflation = 0.0;
  EXPECT_THROW(s.validate(), InvalidArgument);

  s = ok;
  s.fault_spec = "not-a-fault-spec";
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(JobSpec, SummaOptionsViewMapsKernelAndKnobs) {
  JobSpec s = full_spec();
  s.kernel = Pipeline::kHash;
  SummaOptions hash = s.summa_options();
  EXPECT_EQ(hash.pipeline, Pipeline::kHash);
  EXPECT_EQ(hash.local_kind(), SpGemmKind::kUnsortedHash);
  EXPECT_EQ(hash.merge_kind(), MergeKind::kUnsortedHash);
  s.kernel = Pipeline::kHybrid;
  SummaOptions hybrid = s.summa_options();
  EXPECT_EQ(hybrid.pipeline, Pipeline::kHybrid);
  EXPECT_EQ(hybrid.local_kind(), SpGemmKind::kHybrid);
  EXPECT_EQ(hybrid.merge_kind(), MergeKind::kSortedHeap);
  EXPECT_TRUE(hybrid.sparse_comm);
  EXPECT_EQ(hybrid.threads, 2);
  EXPECT_EQ(hybrid.force_batches, 2);
  EXPECT_TRUE(hybrid.adaptive_rebatch);
  EXPECT_EQ(hybrid.ckpt_job_tag, "tag");
  // Non-owning pointers are wired by the executor, never by the view.
  EXPECT_EQ(hybrid.memory, nullptr);
  EXPECT_EQ(hybrid.ckpt, nullptr);
}

TEST(JobSpec, RunOptionsNeverInheritEnvFaults) {
  JobSpec s;
  s.a = MatrixSource::er_square(16, 2.0, 1);
  // Empty fault_spec must pin an explicitly *disabled* plan (not "unset",
  // which would make vmpi::run consult CASP_VMPI_FAULTS) — one tenant's
  // environment chaos must never leak into another tenant's job. Every
  // attempt runs through a chain; an unsupervised spec's has no restarts.
  EXPECT_FALSE(s.supervised());
  EXPECT_EQ(s.supervisor_options().max_restarts, 0);
  vmpi::RunOptions quiet =
      vmpi::SupervisionChain(s.supervisor_options()).attempt_options();
  ASSERT_TRUE(quiet.faults.has_value());
  EXPECT_FALSE(quiet.faults->enabled());
  EXPECT_TRUE(quiet.capture_failure);

  s.fault_spec = "seed=7;crash_rank=2;crash_op=11";
  vmpi::RunOptions chaos =
      vmpi::SupervisionChain(s.supervisor_options()).attempt_options();
  ASSERT_TRUE(chaos.faults.has_value());
  EXPECT_TRUE(chaos.faults->enabled());
  EXPECT_EQ(chaos.faults->crash_rank, 2);
  EXPECT_EQ(chaos.faults->crash_op, 11u);

  // A checkpoint directory supervises with the default bound.
  s.ckpt_dir = "/tmp/ckpt";
  EXPECT_TRUE(s.supervised());
  EXPECT_EQ(s.supervisor_options().max_restarts,
            vmpi::SupervisorOptions{}.max_restarts);
  s.ckpt_dir.clear();

  s.max_restarts = 5;
  vmpi::SupervisorOptions sup = s.supervisor_options();
  EXPECT_EQ(sup.max_restarts, 5);
  ASSERT_TRUE(sup.faults.has_value());
  EXPECT_TRUE(sup.faults->enabled());
  EXPECT_TRUE(s.supervised());
}

// ---------------------------------------------------------------------------
// JobSpecMutation: seeded splitmix64 mutations of JobSpec JSON text through
// Json::parse and JobSpec::from_json. A mutant either fails with
// InvalidArgument (never another exception, never a crash) or parses to a
// spec whose dump parses back to the same dump. validate() on an accepted
// mutant classifies the same way. check.sh runs this suite in its
// ASan+UBSan stage.

/// Texts the mutator splices in: JSON punctuation, literals, and numbers
/// at and past the edges of the fields' types.
constexpr std::array<const char*, 22> kSplices = {
    "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u00e9", "true", "null",
    "-0", "0.5", "1e300", "1e999", "-9223372036854775809",
    "99999999999999999999", "9223372036854775807", "\"x\"", "[1,2]",
    "{\"k\":1}", "\"\xff\x01\""};

std::string mutate(const std::string& text, std::uint64_t& state) {
  std::string m = text;
  const auto at = [&](std::size_t n) {
    return static_cast<std::size_t>(splitmix64(state) % (n + 1));
  };
  switch (splitmix64(state) % 5) {
    case 0:  // a flipped bit
      if (!m.empty()) {
        const std::size_t k = at(m.size() - 1);
        m[k] = static_cast<char>(m[k] ^ (1 << (splitmix64(state) % 8)));
      }
      break;
    case 1: {  // a deleted span
      const std::size_t k = at(m.size());
      m.erase(k, 1 + splitmix64(state) % 12);
      break;
    }
    case 2: {  // a spliced token
      m.insert(at(m.size()), kSplices[splitmix64(state) % kSplices.size()]);
      break;
    }
    case 3: {  // a value replaced: the text after a ':' up to the next , or }
      const std::size_t colon = m.find(':', at(m.size()));
      if (colon == std::string::npos) break;
      const std::size_t end = m.find_first_of(",}", colon + 1);
      m.replace(colon + 1,
                (end == std::string::npos ? m.size() : end) - colon - 1,
                kSplices[splitmix64(state) % kSplices.size()]);
      break;
    }
    default: {  // a span copied elsewhere
      const std::size_t from = at(m.size());
      const std::string span = m.substr(from, 1 + splitmix64(state) % 24);
      m.insert(at(m.size()), span);
      break;
    }
  }
  return m;
}

TEST(JobSpecMutation, MutantsAreRefusedAsInvalidArgumentOrRoundTrip) {
  JobSpec spgemm;
  spgemm.a = MatrixSource::rmat_graph(6, 4.0, 3);
  spgemm.b = MatrixSource::file("in.mtx");
  spgemm.deadline_ms = 250;
  spgemm.elastic = true;
  JobSpec protein;
  protein.op = JobOp::kTriangleCount;
  protein.a = MatrixSource::protein_network(40, 9);
  const std::vector<std::string> seeds = {full_spec().dump(), spgemm.dump(),
                                          protein.dump()};
  std::uint64_t state = 0x5eed0025;
  int refused = 0, accepted = 0;
  for (int i = 0; i < 6000; ++i) {
    std::string text = seeds[static_cast<std::size_t>(i) % seeds.size()];
    // One mutation, or three stacked so some mutants drift far.
    for (int n = splitmix64(state) % 4 == 0 ? 3 : 1; n > 0; --n)
      text = mutate(text, state);
    JobSpec spec;
    try {
      spec = JobSpec::parse(text);
    } catch (const InvalidArgument&) {
      ++refused;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << "\n"
                    << text;
      continue;
    }
    ++accepted;
    const std::string once = spec.dump();
    EXPECT_EQ(JobSpec::parse(once).dump(), once) << "mutant " << i;
    try {
      spec.validate();
    } catch (const InvalidArgument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " validate threw " << e.what();
    }
  }
  EXPECT_GT(refused, 3000);
  EXPECT_GT(accepted, 150);
}

TEST(JobSpecMutation, DeepNestingIsRefusedNotAStackOverflow) {
  // The parser recurses per level; past its bound it refuses the text.
  const std::string deep = R"({"a": )" + std::string(100000, '[');
  EXPECT_THROW(JobSpec::parse(deep), InvalidArgument);
}

TEST(MatrixSource, GeneratorMaterializationIsDeterministic) {
  const MatrixSource src = MatrixSource::er_square(48, 3.0, 11);
  const CscMat a = src.materialize();
  const CscMat b = src.materialize();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.nrows(), 48);
}

}  // namespace
}  // namespace casp::svc
