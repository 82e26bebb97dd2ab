// Regression tests pinning the instrumented communication against the
// Table II closed forms — the assertion-based sibling of
// bench_table2_comm_complexity.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/dist.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

struct TrafficCase {
  int p;
  int l;
  Index b;
};

class TrafficFormulas : public ::testing::TestWithParam<TrafficCase> {};

TEST_P(TrafficFormulas, MessageCountsMatchClosedForms) {
  const auto [p, l, b] = GetParam();
  const int q = static_cast<int>(std::sqrt(p / l));
  const Index n = 40;
  const CscMat a = testing::random_matrix(n, n, 3.0, 170);

  auto result = vmpi::run(p, [&, l = l, b = b](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.force_batches = b;
    (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
  });
  const auto traffic = result.traffic_summary().total_per_phase;
  auto messages = [&](const char* s) -> std::uint64_t {
    const auto it = traffic.find(s);
    return it == traffic.end() ? 0 : it->second.messages;
  };

  // Binomial-tree broadcasts: q-1 sends per tree; b*q trees per process
  // row; l*q rows (and symmetrically columns).
  const std::uint64_t bcast_msgs = static_cast<std::uint64_t>(l) * q * b * q *
                                   static_cast<std::uint64_t>(q - 1);
  EXPECT_EQ(messages(steps::kABcast), bcast_msgs);
  EXPECT_EQ(messages(steps::kBBcast), bcast_msgs);

  // Pairwise all-to-all: l-1 sends per rank per batch, q*q*l ranks.
  const std::uint64_t fiber_msgs = static_cast<std::uint64_t>(b) * q * q * l *
                                   static_cast<std::uint64_t>(l - 1);
  EXPECT_EQ(messages(steps::kAllToAllFiber), fiber_msgs);
}

TEST_P(TrafficFormulas, InnerBalanceMessagesMatchClosedForm) {
  const auto [p, l, b] = GetParam();
  const std::uint64_t q = static_cast<std::uint64_t>(std::sqrt(p / l));
  const std::uint64_t L = static_cast<std::uint64_t>(l);
  const CscMat a = testing::random_matrix(40, 40, 3.0, 173);
  auto result = vmpi::run(p, [&, l = l, b = b](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.force_batches = b;
    (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
  });
  const auto traffic = result.traffic_summary().total_per_phase;
  const auto it = traffic.find(steps::kInnerBalance);
  const std::uint64_t got = it == traffic.end() ? 0 : it->second.messages;
  if (l == 1) {
    EXPECT_EQ(got, 0u) << "no inner cut runs at l = 1";
    return;
  }
  // Once per job, independent of b. Per layer, three allreduces over the
  // q grid rows or columns (A's column nnz, B's row nnz, the layer-flops
  // counters), 2(q-1) messages each on each of the q communicators, plus
  // one transpose swap per off-diagonal rank: 7q(q-1) per layer. Per fiber
  // (q*q of them), one allgather of 2(l-1) messages and two alltoalls of
  // l(l-1) each.
  const std::uint64_t per_layer = 7 * q * (q - 1);
  const std::uint64_t per_fiber = 2 * (L - 1) + 2 * L * (L - 1);
  EXPECT_EQ(got, L * per_layer + q * q * per_fiber);
}

TEST_P(TrafficFormulas, FiberBalanceMatchesClosedForm) {
  const auto [p, l, b] = GetParam();
  const std::uint64_t q = static_cast<std::uint64_t>(std::sqrt(p / l));
  const std::uint64_t L = static_cast<std::uint64_t>(l);
  const Index n = 40;
  const CscMat a = testing::random_matrix(n, n, 3.0, 174);
  // No force_batches: Symbolic3D runs and, at M = 0, picks b = 1.
  auto result = vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    (void)batched_summa3d<PlusTimes>(grid, da, db, 0);
  });
  const auto traffic = result.traffic_summary().total_per_phase;
  const auto it = traffic.find(steps::kFiberBalance);
  const std::uint64_t msgs = it == traffic.end() ? 0 : it->second.messages;
  const std::uint64_t bytes =
      it == traffic.end() ? 0 : static_cast<std::uint64_t>(it->second.bytes);
  if (l == 1) {
    EXPECT_EQ(it, traffic.end()) << "no fiber cut runs at l = 1";
  } else {
    // Once per job. Two allreduces (binomial reduce + broadcast, 2(c-1)
    // messages on a c-rank communicator) of an Index vector as wide as the
    // B column part: over each of the q*q fibers, then over each of the
    // q*l grid columns' col_comms, skipped at q = 1. The part widths of a
    // layer's grid columns sum to n.
    const std::uint64_t w = static_cast<std::uint64_t>(n) * sizeof(Index);
    EXPECT_EQ(msgs, q * q * 2 * (L - 1) + q * L * 2 * (q - 1));
    EXPECT_EQ(bytes, w * (q * 2 * (L - 1) + L * 2 * (q - 1)));
  }

  // Table II's phases are those of the forced b = 1 run.
  const auto messages = [&](const char* s) -> std::uint64_t {
    const auto found = traffic.find(s);
    return found == traffic.end() ? 0 : found->second.messages;
  };
  EXPECT_EQ(messages(steps::kABcast), L * q * q * (q - 1));
  EXPECT_EQ(messages(steps::kBBcast), L * q * q * (q - 1));
  EXPECT_EQ(messages(steps::kAllToAllFiber), q * q * L * (L - 1));
}

TEST_P(TrafficFormulas, ABcastBytesScaleLinearlyWithBatches) {
  const auto [p, l, b] = GetParam();
  if (p / l < 4) GTEST_SKIP();  // need q >= 2 for nonzero broadcasts
  const Index n = 48;
  const CscMat a = testing::random_matrix(n, n, 3.0, 171);
  auto volume_at = [&](Index batches) {
    auto result = vmpi::run(p, [&, l = l, batches](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      SummaOptions opts;
      opts.force_batches = batches;
      (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    });
    return result.traffic_summary().total_per_phase.at(steps::kABcast).bytes;
  };
  const Bytes v1 = volume_at(1);
  const Bytes v4 = volume_at(4);
  // Payload quadruples; per-batch colptr overhead makes it slightly more.
  EXPECT_GE(v4, 3 * v1);
  EXPECT_LE(v4, 5 * v1);
}

INSTANTIATE_TEST_SUITE_P(Grids, TrafficFormulas,
                         ::testing::Values(TrafficCase{4, 1, 1},
                                           TrafficCase{16, 4, 2},
                                           TrafficCase{16, 1, 3},
                                           TrafficCase{36, 4, 2},
                                           TrafficCase{16, 16, 2}));

TEST(TrafficFormulas, BBcastBytesIndependentOfBatches) {
  const int p = 16, l = 4;
  const Index n = 48;
  const CscMat a = testing::random_matrix(n, n, 3.0, 172);
  Bytes volumes[2];
  int idx = 0;
  for (Index b : {Index{1}, Index{6}}) {
    auto result = vmpi::run(p, [&, b](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      SummaOptions opts;
      opts.force_batches = b;
      (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    });
    volumes[idx++] =
        result.traffic_summary().total_per_phase.at(steps::kBBcast).bytes;
  }
  // Same payload split into 6 slices: only headers/colptr framing differ.
  EXPECT_LT(static_cast<double>(volumes[1]),
            1.6 * static_cast<double>(volumes[0]));
}

}  // namespace
}  // namespace casp
