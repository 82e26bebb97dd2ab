// Golden-structure tests for the observability layer: Json roundtrips, the
// RunReport document (schema, Table II agreement, rank×rank matrices,
// bit-identical deterministic subset), and Chrome-trace well-formedness
// (paired B/E spans, nondecreasing timestamps per tid).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/dist.hpp"
#include "obs/job_report.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

using obs::Json;

// ---------------------------------------------------------------------------
// Json value type
// ---------------------------------------------------------------------------

TEST(Json, DumpParseRoundtrip) {
  Json doc = Json::object();
  doc.set("int", std::int64_t{-42});
  doc.set("big", std::uint64_t{9007199254740993});  // not double-exact
  doc.set("pi", 3.25);
  doc.set("flag", true);
  doc.set("none", nullptr);
  doc.set("text", "quo\"te\n\\tab");
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  Json inner = Json::object();
  inner.set("k", 3);
  arr.push_back(std::move(inner));
  doc.set("list", std::move(arr));

  const std::string text = doc.dump();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.find("int")->as_int(), -42);
  EXPECT_EQ(back.find("big")->as_int(), std::int64_t{9007199254740993});
  EXPECT_EQ(back.find("pi")->as_double(), 3.25);
  EXPECT_TRUE(back.find("flag")->as_bool());
  EXPECT_TRUE(back.find("none")->is_null());
  EXPECT_EQ(back.find("text")->as_string(), "quo\"te\n\\tab");
  ASSERT_EQ(back.find("list")->size(), 3u);
  EXPECT_EQ(back.find("list")->at(2).find("k")->as_int(), 3);
  // A parse/dump cycle is the identity on writer output.
  EXPECT_EQ(back.dump(), text);
  // Pretty output parses back to the same document.
  EXPECT_EQ(Json::parse(doc.dump_pretty()).dump(), text);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json doc = Json::object();
  doc.set("zebra", 1);
  doc.set("alpha", 2);
  doc.set("zebra", 3);  // overwrite keeps the original position
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "zebra");
  EXPECT_EQ(doc.members()[0].second.as_int(), 3);
  EXPECT_EQ(doc.members()[1].first, "alpha");
  EXPECT_EQ(doc.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("'single'"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

vmpi::RunResult run_batched(const CscMat& a, int p, int l, Index b) {
  return vmpi::run(p, [&, l, b](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.force_batches = b;
    (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
  });
}

TEST(RunReport, TableIICountsOn4x4x4Grid) {
  const int p = 64, l = 4, q = 4;
  const Index b = 2;
  const CscMat a = testing::random_matrix(40, 40, 3.0, 180);
  const vmpi::RunResult result = run_batched(a, p, l, b);
  const obs::RunReport report = obs::build_report(result);

  // The report is a view of the ledger TrafficStats keeps, so its phase
  // totals must be bit-identical to the summary counts...
  const auto traffic = result.traffic_summary().total_per_phase;
  for (const char* phase :
       {steps::kABcast, steps::kBBcast, steps::kAllToAllFiber}) {
    ASSERT_TRUE(report.phases.count(phase)) << phase;
    const obs::PhaseEntry& e = report.phases.at(phase);
    EXPECT_EQ(e.total.messages, traffic.at(phase).messages) << phase;
    EXPECT_EQ(e.total.bytes, traffic.at(phase).bytes) << phase;
  }

  // ...and those counts are pinned by the Table II closed forms.
  const std::uint64_t bcast_msgs = static_cast<std::uint64_t>(l) * q * b * q *
                                   static_cast<std::uint64_t>(q - 1);
  const std::uint64_t fiber_msgs = static_cast<std::uint64_t>(b) * q * q * l *
                                   static_cast<std::uint64_t>(l - 1);
  EXPECT_EQ(report.phases.at(steps::kABcast).total.messages, bcast_msgs);
  EXPECT_EQ(report.phases.at(steps::kBBcast).total.messages, bcast_msgs);
  EXPECT_EQ(report.phases.at(steps::kAllToAllFiber).total.messages,
            fiber_msgs);

  // The serialized document carries the same numbers through a parse.
  const Json doc = Json::parse(report.to_json().dump());
  EXPECT_EQ(doc.find("schema")->as_string(), "casp.run_report.v1");
  EXPECT_EQ(doc.find("ranks")->as_int(), p);
  const Json* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(phases->find(steps::kABcast)->find("messages")->as_int(),
            static_cast<std::int64_t>(bcast_msgs));
  EXPECT_EQ(phases->find(steps::kAllToAllFiber)->find("messages")->as_int(),
            static_cast<std::int64_t>(fiber_msgs));
  ASSERT_NE(doc.find("counters"), nullptr);
  EXPECT_EQ(doc.find("counters")->find("batches")->as_int(), b);

  // The rank×rank matrix is charged by the very same record_send calls, so
  // its grand total reproduces the phase total.
  const Json* matrix = doc.find("traffic_matrix")->find(steps::kABcast);
  ASSERT_NE(matrix, nullptr);
  EXPECT_EQ(matrix->find("ranks")->as_int(), p);
  std::uint64_t grand = 0;
  for (const Json& row : matrix->find("messages")->items())
    for (const Json& cell : row.items())
      grand += static_cast<std::uint64_t>(cell.as_int());
  EXPECT_EQ(grand, bcast_msgs);
}

TEST(RunReport, MatrixRowSumsReproducePerRankTotals) {
  const CscMat a = testing::random_matrix(40, 40, 3.0, 181);
  const vmpi::RunResult result = run_batched(a, 16, 4, 2);
  const obs::RunReport report = obs::build_report(result);
  ASSERT_FALSE(report.matrices.empty());
  for (const auto& [phase, m] : report.matrices) {
    ASSERT_EQ(m.ranks, 16);
    for (int src = 0; src < m.ranks; ++src) {
      std::uint64_t row_msgs = 0, row_bytes = 0;
      for (int dst = 0; dst < m.ranks; ++dst) {
        const std::size_t i = static_cast<std::size_t>(src) * 16 +
                              static_cast<std::size_t>(dst);
        row_msgs += m.messages[i];
        row_bytes += m.bytes[i];
      }
      const auto& per_phase = result.recorders[static_cast<std::size_t>(src)]
                                  .traffic()
                                  .per_phase();
      const auto it = per_phase.find(phase);
      const std::uint64_t want_msgs =
          it == per_phase.end() ? 0 : it->second.messages;
      const std::uint64_t want_bytes =
          it == per_phase.end()
              ? 0
              : static_cast<std::uint64_t>(it->second.bytes);
      EXPECT_EQ(row_msgs, want_msgs) << phase << " rank " << src;
      EXPECT_EQ(row_bytes, want_bytes) << phase << " rank " << src;
    }
  }
}

TEST(RunReport, DeterministicJsonBitIdenticalAcrossRuns) {
  const CscMat a = testing::random_matrix(40, 40, 3.0, 182);
  const std::string one =
      obs::build_report(run_batched(a, 16, 4, 2)).deterministic_json().dump();
  const std::string two =
      obs::build_report(run_batched(a, 16, 4, 2)).deterministic_json().dump();
  EXPECT_EQ(one, two);

  // The subset really is deterministic-only: no wall times, no memory.
  const Json doc = Json::parse(one);
  EXPECT_FALSE(doc.contains("wall_seconds"));
  EXPECT_FALSE(doc.contains("memory"));
  const Json* abcast = doc.find("phases")->find(steps::kABcast);
  ASSERT_NE(abcast, nullptr);
  EXPECT_FALSE(abcast->contains("seconds_sum"));
  EXPECT_FALSE(abcast->contains("seconds_max"));
}

TEST(JobReport, DeterministicViewDropsTheBillOfAJobThatLostARank) {
  // A done job whose first attempt died on a permanent crash and re-ran at
  // full width on spare ranks: no restart, no resume, no shrink, but the
  // bill holds the failed attempt's schedule-dependent traffic.
  obs::JobReport job;
  job.job_id = "job-0";
  job.state = "done";
  job.billing.messages = 43;
  job.run.emplace();
  job.run->recovery.emplace();
  job.run->recovery->dead_ranks = {2};
  job.run->recovery->failure_kinds = {"permanent_crash"};
  Json doc = Json::parse(job.deterministic_json().dump());
  ASSERT_TRUE(doc.contains("billing"));
  EXPECT_TRUE(doc.find("billing")->is_null());
  EXPECT_TRUE(doc.find("run")->is_null());
  ASSERT_TRUE(doc.contains("recovery"));
  EXPECT_EQ(doc.find("recovery")->find("restarts")->dump(), "0");

  // Without a dead rank the same job keeps its bill.
  job.run->recovery->dead_ranks.clear();
  doc = Json::parse(job.deterministic_json().dump());
  EXPECT_FALSE(doc.find("billing")->is_null());
  EXPECT_FALSE(doc.contains("recovery"));
}

TEST(RunReport, MaxCountersMergeByMaxOverRanks) {
  // Rank 2 holds the largest per-rank maximum; rank 0 the largest of the
  // others, which keep rank 0's value.
  const vmpi::RunResult run = vmpi::run(4, [](vmpi::Comm& world) {
    const std::int64_t r = world.rank();
    world.recorder().set_counter("summa.fiber_nnz_max", r == 2 ? 90 : 10 + r);
    world.recorder().set_counter("summa.layer_flops_max_in", 100 - r);
    world.recorder().set_counter("summa.final_batches", 7 - r);
  });
  const auto counters = obs::build_report(run).counters;
  EXPECT_EQ(counters.at("summa.fiber_nnz_max"), 90);
  EXPECT_EQ(counters.at("summa.layer_flops_max_in"), 100);
  EXPECT_EQ(counters.at("summa.final_batches"), 7);
}

TEST(RunReport, FullDocumentSchemaKeyOrder) {
  const CscMat a = testing::random_matrix(30, 30, 3.0, 183);
  const vmpi::RunResult result = run_batched(a, 4, 1, 1);
  const Json doc = Json::parse(obs::build_report(result).to_json().dump());
  const std::vector<std::string> want = {
      "schema",   "ranks",  "wall_seconds",  "phases",
      "counters", "memory", "traffic_matrix"};
  ASSERT_EQ(doc.members().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(doc.members()[i].first, want[i]);
  const Json* mem = doc.find("memory");
  ASSERT_NE(mem, nullptr);
  EXPECT_TRUE(mem->contains("peak_bytes_max"));
  EXPECT_EQ(mem->find("peak_bytes_per_rank")->size(), 4u);
  // Timed phases report both aggregate and critical-path seconds.
  const Json* abcast = doc.find("phases")->find(steps::kABcast);
  ASSERT_NE(abcast, nullptr);
  EXPECT_TRUE(abcast->contains("seconds_sum"));
  EXPECT_TRUE(abcast->contains("seconds_max"));
  EXPECT_GE(abcast->find("seconds_sum")->as_double(),
            abcast->find("seconds_max")->as_double());
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, WellFormedPairedSpansAndMonotoneTimestamps) {
  const CscMat a = testing::random_matrix(40, 40, 3.0, 184);
  const vmpi::RunResult result = run_batched(a, 16, 4, 2);
  const Json doc = Json::parse(obs::chrome_trace_string(result));
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->size(), 0u);

  std::map<std::int64_t, std::vector<std::string>> open;  // tid -> B stack
  std::map<std::int64_t, double> last_ts;
  bool saw_tagged_bcast = false;
  for (const Json& e : events->items()) {
    const std::string ph = e.find("ph")->as_string();
    const std::int64_t tid = e.find("tid")->as_int();
    EXPECT_EQ(e.find("pid")->as_int(), 0);
    if (ph == "M") {
      EXPECT_EQ(e.find("args")->find("name")->as_string(),
                "rank " + std::to_string(tid));
      continue;
    }
    const double ts = e.find("ts")->as_double();
    const auto [it, first] = last_ts.try_emplace(tid, ts);
    EXPECT_GE(ts, it->second) << "tid " << tid << " timestamps regressed";
    it->second = ts;
    const std::string& name = e.find("name")->as_string();
    if (ph == "B") {
      open[tid].push_back(name);
      const Json* args = e.find("args");
      if (name == steps::kABcast && args != nullptr &&
          args->contains("stage") && args->contains("layer"))
        saw_tagged_bcast = true;
    } else if (ph == "E") {
      ASSERT_FALSE(open[tid].empty()) << "unmatched E for " << name;
      EXPECT_EQ(open[tid].back(), name) << "tid " << tid;
      open[tid].pop_back();
    } else {
      EXPECT_EQ(ph, "C") << "unexpected event type " << ph;
      ASSERT_NE(e.find("args"), nullptr);
      EXPECT_TRUE(e.find("args")->contains("value"));
    }
  }
  for (const auto& [tid, stack] : open)
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " has unclosed spans";
  // The structured tags made it into the span args: broadcast spans carry
  // their SUMMA stage and grid layer.
  EXPECT_TRUE(saw_tagged_bcast);
}

}  // namespace
}  // namespace casp
