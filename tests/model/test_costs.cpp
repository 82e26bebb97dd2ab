// Cost-model tests: Table II/III scaling structure and Table VI trend
// directions must hold, and the model must agree with the instrumented
// runtime on communication volumes.
#include <gtest/gtest.h>

#include "grid/dist.hpp"
#include "model/costs.hpp"
#include "model/scaling.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

ProblemStats sample_stats() {
  ProblemStats s;
  s.nnz_a = 100'000'000;
  s.nnz_b = 100'000'000;
  s.flops = 5'000'000'000;
  s.nnz_c = 1'000'000'000;
  return s;
}

TEST(CostModel, TableVITrendsWithBatches) {
  // Fixed l, increasing b: A-Bcast up, B-Bcast bandwidth flat(ish),
  // Local-Multiply flat, Merge flat, fiber steps flat (Table VI row 1).
  const Machine m = cori_knl();
  const ProblemStats s = sample_stats();
  const StepSeconds t1 = predict_steps(m, s, {4096, 16, 1, true});
  const StepSeconds t8 = predict_steps(m, s, {4096, 16, 8, true});
  EXPECT_GT(t8.at(steps::kABcast), 4.0 * t1.at(steps::kABcast));
  // B-Bcast grows only by the latency term.
  EXPECT_LT(t8.at(steps::kBBcast), 2.0 * t1.at(steps::kBBcast));
  EXPECT_DOUBLE_EQ(t8.at(steps::kLocalMultiply), t1.at(steps::kLocalMultiply));
  EXPECT_DOUBLE_EQ(t8.at(steps::kMergeLayer), t1.at(steps::kMergeLayer));
  EXPECT_DOUBLE_EQ(t8.at(steps::kMergeFiber), t1.at(steps::kMergeFiber));
  // AllToAll-Fiber: bandwidth term unchanged, only latency grows.
  EXPECT_NEAR(t8.at(steps::kAllToAllFiber), t1.at(steps::kAllToAllFiber),
              m.alpha * 8 * 16 + 1e-12);
  // Symbolic is independent of b entirely.
  EXPECT_DOUBLE_EQ(t8.at(steps::kSymbolic), t1.at(steps::kSymbolic));
}

TEST(CostModel, TableVITrendsWithLayers) {
  // Fixed b, increasing l: both bcasts down, fiber steps up (Table VI row 2).
  const Machine m = cori_knl();
  const ProblemStats s = sample_stats();
  const StepSeconds l1 = predict_steps(m, s, {4096, 1, 4, true});
  const StepSeconds l16 = predict_steps(m, s, {4096, 16, 4, true});
  EXPECT_LT(l16.at(steps::kABcast), l1.at(steps::kABcast));
  EXPECT_LT(l16.at(steps::kBBcast), l1.at(steps::kBBcast));
  EXPECT_GT(l16.at(steps::kAllToAllFiber), l1.at(steps::kAllToAllFiber));
  EXPECT_GT(l16.at(steps::kMergeFiber), l1.at(steps::kMergeFiber));
  EXPECT_LT(l16.at(steps::kSymbolic), l1.at(steps::kSymbolic));
}

TEST(CostModel, ABcastBandwidthScalesAsSqrtL) {
  // Fig. 5: 4x layers -> ~2x less A-Bcast time (bandwidth regime).
  const Machine m = cori_knl();
  ProblemStats s = sample_stats();
  s.nnz_a = 4'000'000'000;  // bandwidth-dominated
  const double a1 =
      predict_steps(m, s, {4096, 1, 8, true}).at(steps::kABcast);
  const double a4 =
      predict_steps(m, s, {4096, 4, 8, true}).at(steps::kABcast);
  const double a16 =
      predict_steps(m, s, {4096, 16, 8, true}).at(steps::kABcast);
  EXPECT_NEAR(a1 / a4, 2.0, 0.25);
  EXPECT_NEAR(a4 / a16, 2.0, 0.25);
}

TEST(CostModel, HashKernelsBeatHeapKernels) {
  // Table VII: merge steps are an order of magnitude faster with the
  // unsorted-hash kernels at l = 16.
  const Machine m = cori_knl();
  const ProblemStats s = sample_stats();
  const StepSeconds hash = predict_steps(m, s, {4096, 16, 4, true});
  const StepSeconds heap = predict_steps(m, s, {4096, 16, 4, false});
  EXPECT_GT(heap.at(steps::kMergeLayer), 5.0 * hash.at(steps::kMergeLayer));
  EXPECT_GT(heap.at(steps::kMergeFiber), 2.0 * hash.at(steps::kMergeFiber));
}

TEST(CostModel, OneStageLayersPredictNoMergeLayer) {
  // l = p makes every layer 1x1 (q = 1): summa2d moves its lone stage
  // partial through, so Merge-Layer costs nothing — the mirror of the
  // l = 1 -> Merge-Fiber = 0 case. With 4 layers (q = 2) the merge is
  // charged again.
  const Machine m = cori_knl();
  const ProblemStats s = sample_stats();
  for (bool hash : {true, false}) {
    const StepSeconds single = predict_steps(m, s, {16, 16, 2, hash});
    EXPECT_EQ(single.at(steps::kMergeLayer), 0.0);
    EXPECT_GT(single.at(steps::kMergeFiber), 0.0);
    const StepSeconds staged = predict_steps(m, s, {16, 4, 2, hash});
    EXPECT_GT(staged.at(steps::kMergeLayer), 0.0);
  }
}

TEST(CostModel, PredictBatchesMatchesEq2Arithmetic) {
  ProblemStats s = sample_stats();
  const Index p = 1024;
  const double r = static_cast<double>(kBytesPerNonzero);
  // Memory = inputs + exactly 1/5 of the unmerged output.
  const double per_rank = r * static_cast<double>(s.nnz_a + s.nnz_b) /
                              static_cast<double>(p) +
                          r * static_cast<double>(s.flops) /
                              (5.0 * static_cast<double>(p));
  const Bytes total = static_cast<Bytes>(per_rank * static_cast<double>(p));
  EXPECT_EQ(predict_batches(s, p, total), 5);
  EXPECT_EQ(predict_batches(s, p, 0), 1);  // unlimited
  EXPECT_THROW(predict_batches(s, p, 10), MemoryError);
}

TEST(CostModel, ImbalanceIncreasesBatches) {
  ProblemStats s = sample_stats();
  const Index p = 1024;
  const double r = static_cast<double>(kBytesPerNonzero);
  const double per_rank = r * static_cast<double>(s.nnz_a + s.nnz_b) /
                              static_cast<double>(p) * 3.0 +
                          r * static_cast<double>(s.flops) /
                              (4.0 * static_cast<double>(p));
  const Bytes total = static_cast<Bytes>(per_rank * static_cast<double>(p));
  const Index balanced = predict_batches(s, p, total);
  s.imbalance = 2.0;
  const Index skewed = predict_batches(s, p, total);
  EXPECT_GT(skewed, balanced);
}

TEST(CostModel, ModelBandwidthMatchesInstrumentedRun) {
  // The model's A-Bcast byte count must agree with the runtime's actual
  // measured traffic within the serialization-overhead margin.
  const Index n = 32;
  const CscMat a = testing::random_matrix(n, n, 4.0, 70);
  const int p = 16, l = 4;
  const Index b = 2;
  auto result = vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.force_batches = b;
    (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
  });
  const auto traffic = result.traffic_summary();
  const Bytes abcast = traffic.total_per_phase.at(steps::kABcast).bytes;
  // Table II total volume: each of the b*q stage broadcasts ships the
  // root's block to q-1 receivers (tree total = size * (q-1)).
  // Sum over roots of one row = (q-1) * (layer slice of A in that row).
  // Across all rows/layers: (q-1) * b * nnz(A) entries.
  const Index q = 2;  // sqrt(16/4)
  const double expected_entries =
      static_cast<double>((q - 1) * b * a.nnz());
  const double actual_entries =
      static_cast<double>(abcast) / static_cast<double>(kBytesPerNonzero);
  // Serialization adds colptr + headers; allow 2.5x but demand the right
  // order of magnitude and the lower bound.
  EXPECT_GE(actual_entries, expected_entries * 0.9);
  EXPECT_LE(actual_entries, expected_entries * 3.0);
}

TEST(ScalingModel, MoreMemoryFewerBatchesSuperlinearSpeedup) {
  // Fig. 6/7: 4x nodes -> b at least halves -> superlinear total speedup
  // is possible (A-Bcast drops superlinearly).
  const Machine m = cori_knl();
  ProblemStats s = sample_stats();
  // Metaclust50-scale: 37B input nonzeros, 92T flops (Table V) — big enough
  // that 256 nodes need many batches.
  s.nnz_a = 37'000'000'000;
  s.nnz_b = 37'000'000'000;
  s.flops = 92'000'000'000'000;
  s.nnz_c = 1'000'000'000'000;
  const auto series = strong_scaling(m, s, {1024, 4096, 16384}, 16);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_GT(series[0].b, series[1].b);
  EXPECT_GE(series[1].b, series[2].b);
  EXPECT_GT(series[1].total, series[2].total);
  EXPECT_GT(series[0].total, series[1].total);
}

TEST(ScalingModel, LayeredUnmergedVolumeGrowsWithLayers) {
  // More layers -> less within-slice compression -> larger intermediate
  // volume (the mechanism behind Table VI's fiber rows).
  const CscMat a = testing::random_matrix(300, 300, 6.0, 71);
  const Index v1 = layered_unmerged_nnz(a, a, 1);
  const Index v4 = layered_unmerged_nnz(a, a, 4);
  const Index v16 = layered_unmerged_nnz(a, a, 16);
  EXPECT_LE(v1, v4);
  EXPECT_LE(v4, v16);
  // Bounded by flops from above and nnz(C) from below (Eq. 1).
  const ProblemStats s = analyze_problem(a, a);
  EXPECT_GE(v1, s.nnz_c);
  EXPECT_LE(v16, s.flops);
}

TEST(Machines, PresetsAreOrdered) {
  const Machine knl = cori_knl();
  const Machine haswell = cori_haswell();
  const Machine ht = cori_knl_hyperthreaded();
  EXPECT_GT(haswell.multiply_rate, knl.multiply_rate);
  EXPECT_LT(haswell.beta, knl.beta);          // faster network handling
  EXPECT_LT(ht.multiply_rate, knl.multiply_rate);  // slower per process
  EXPECT_GT(ht.cores_per_node, knl.cores_per_node);
  EXPECT_EQ(knl.processes_per_node(), 4);     // 68 cores / 16 threads
}

TEST(CostModel, FormatStepsMentionsEveryStep) {
  const StepSeconds t =
      predict_steps(cori_knl(), sample_stats(), {1024, 4, 2, true});
  const std::string s = format_steps(t);
  for (const char* name : steps::kAll)
    EXPECT_NE(s.find(name), std::string::npos) << name;
}

}  // namespace
}  // namespace casp
