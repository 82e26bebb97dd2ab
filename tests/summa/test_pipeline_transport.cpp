// The prefetching SUMMA stage schedule (summa/stages.hpp) keeps the
// Table II broadcast accounting: the handle-forwarding nonblocking trees
// record exactly the closed-form message counts.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/dist.hpp"
#include "summa/summa3d.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

struct GridCase {
  int p;
  int l;
};

class PipelineTransport : public ::testing::TestWithParam<GridCase> {};

vmpi::RunResult run_summa(const CscMat& a, const CscMat& b, int p, int l) {
  return vmpi::run(p, [&, l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    summa3d<PlusTimes>(grid, da.local, db.local, SummaOptions{});
  });
}

TEST_P(PipelineTransport, PipelinedBcastCountsStillMatchTableII) {
  // Regression against the pre-rework accounting: the handle-forwarding
  // nonblocking trees must record exactly the closed-form message count
  // (l * q rows/cols, q trees each, q-1 sends per tree).
  const auto [p, l] = GetParam();
  const int q = static_cast<int>(std::sqrt(p / l));
  const Index n = 32;
  const CscMat a = testing::random_matrix(n, n, 4.0, 314);

  const auto traffic = run_summa(a, a, p, l).traffic_summary();
  auto messages = [&](const char* s) -> std::uint64_t {
    const auto it = traffic.total_per_phase.find(s);
    return it == traffic.total_per_phase.end() ? 0 : it->second.messages;
  };
  const std::uint64_t bcast_msgs = static_cast<std::uint64_t>(l) * q * q *
                                   static_cast<std::uint64_t>(q - 1);
  EXPECT_EQ(messages(steps::kABcast), bcast_msgs);
  EXPECT_EQ(messages(steps::kBBcast), bcast_msgs);
}

INSTANTIATE_TEST_SUITE_P(Grids, PipelineTransport,
                         ::testing::Values(GridCase{1, 1}, GridCase{2, 2},
                                           GridCase{4, 1}, GridCase{4, 4},
                                           GridCase{8, 2}));

}  // namespace
}  // namespace casp
