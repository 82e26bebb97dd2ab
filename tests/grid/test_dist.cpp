// Distribution round-trip and partition-coverage properties for the 3D
// layouts of Fig. 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>

#include "common/math.hpp"
#include "gen/rmat.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "sparse/serialize.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

struct DistCase {
  int p;
  int l;
  Index rows;
  Index cols;
};

/// The assembly gather_dist replaced: every entry shipped as a (global row,
/// global col, value) triple to every rank, then sorted by from_triples.
CscMat gather_by_triples(Grid3D& grid, const DistMat3D& dist) {
  TripleMat mine(dist.global_rows, dist.global_cols);
  for (Index j = 0; j < dist.local.ncols(); ++j) {
    const auto rows = dist.local.col_rowids(j);
    const auto vals = dist.local.col_vals(j);
    for (std::size_t k = 0; k < rows.size(); ++k)
      mine.push_back(rows[k] + dist.rows.start, j + dist.cols.start, vals[k]);
  }
  TripleMat all(dist.global_rows, dist.global_cols);
  all.entries() = grid.world().allgather_vec<Triple>(mine.entries());
  return CscMat::from_triples(std::move(all));
}

class DistRoundTrip : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistRoundTrip, AStyleGatherRestoresGlobal) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 3.0, 42);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    DistMat3D dist = distribute_a_style(grid, global);
    EXPECT_EQ(dist.local.nrows(), dist.rows.count);
    EXPECT_EQ(dist.local.ncols(), dist.cols.count);
    CscMat back = gather_dist(grid, dist);
    testing::expect_mat_near(back, global);
  });
}

TEST_P(DistRoundTrip, BStyleGatherRestoresGlobal) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 3.0, 43);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    DistMat3D dist = distribute_b_style(grid, global);
    CscMat back = gather_dist(grid, dist);
    testing::expect_mat_near(back, global);
  });
}

TEST_P(DistRoundTrip, GatherIsBitwiseTheTriplesAssembly) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 3.0, 45);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    for (const DistMat3D& dist : {distribute_a_style(grid, global),
                                  distribute_b_style(grid, global)}) {
      const CscMat back = gather_dist(grid, dist);
      testing::expect_same_arrays(back, gather_by_triples(grid, dist));
      testing::expect_same_arrays(back, global);
    }
  });
}

/// gather_dist's root form on every rank: the all-ranks form's bits on
/// `root`, an empty matrix everywhere else.
void expect_root_gather(Grid3D& grid, const DistMat3D& dist, int root) {
  const CscMat all = gather_dist(grid, dist);
  const PlacedBlock mine[] = {{dist.local, {dist.rows.start, dist.cols.start}}};
  const CscMat one =
      gather_dist(grid, dist.global_rows, dist.global_cols, mine, root);
  if (grid.world().rank() == root) {
    testing::expect_same_arrays(one, all);
  } else {
    EXPECT_EQ(one.nrows(), 0);
    EXPECT_EQ(one.ncols(), 0);
    EXPECT_EQ(one.nnz(), 0);
  }
}

TEST_P(DistRoundTrip, RootGatherIsTheAllRanksGatherOnTheRootOnly) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 3.0, 49);
  vmpi::run(p, [&, l = l, p = p](vmpi::Comm& world) {
    Grid3D grid(world, l);
    for (const DistMat3D& dist : {distribute_a_style(grid, global),
                                  distribute_b_style(grid, global)})
      for (const int root : {0, p - 1}) expect_root_gather(grid, dist, root);
  });
}

TEST_P(DistRoundTrip, LocalNnzSumsToGlobal) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 2.5, 44);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, global);
    const DistMat3D db = distribute_b_style(grid, global);
    EXPECT_EQ(world.allreduce_sum<Index>(da.local.nnz()), global.nnz());
    EXPECT_EQ(world.allreduce_sum<Index>(db.local.nnz()), global.nnz());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistRoundTrip,
    ::testing::Values(DistCase{1, 1, 10, 10}, DistCase{4, 1, 16, 16},
                      DistCase{4, 4, 17, 23},  // odd sizes, deep layering
                      DistCase{8, 2, 33, 19}, DistCase{16, 4, 40, 40},
                      DistCase{18, 2, 29, 37}, DistCase{16, 16, 21, 13},
                      DistCase{9, 1, 27, 31},
                      // more ranks than columns: some blocks empty
                      DistCase{16, 4, 5, 3}));

TEST(DistRanges, AStyleRangesPartitionTheMatrix) {
  // Across all ranks, the (rows x cols) rectangles must tile the matrix
  // exactly: every global (row, col) owned by exactly one rank.
  const int p = 8, l = 2;
  const Index rows = 13, cols = 11;
  std::vector<std::vector<int>> owners(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols), 0));
  std::mutex mutex;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const LocalRange rr = a_style_row_range(grid, rows);
    const LocalRange cr = a_style_col_range(grid, cols);
    std::lock_guard<std::mutex> lock(mutex);
    for (Index r = rr.start; r < rr.start + rr.count; ++r)
      for (Index c = cr.start; c < cr.start + cr.count; ++c)
        ++owners[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
  });
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < cols; ++c)
      EXPECT_EQ(owners[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                1)
          << "cell (" << r << "," << c << ")";
}

TEST(DistRanges, BStyleRangesPartitionTheMatrix) {
  const int p = 18, l = 2;  // q = 3: odd grid
  const Index rows = 17, cols = 23;
  std::vector<std::vector<int>> owners(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols), 0));
  std::mutex mutex;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const LocalRange rr = b_style_row_range(grid, rows);
    const LocalRange cr = b_style_col_range(grid, cols);
    std::lock_guard<std::mutex> lock(mutex);
    for (Index r = rr.start; r < rr.start + rr.count; ++r)
      for (Index c = cr.start; c < cr.start + cr.count; ++c)
        ++owners[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
  });
  // B-style: rows split q*l ways keyed by (i, k), columns q ways keyed by
  // j — every cell owned exactly once.
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < cols; ++c)
      EXPECT_EQ(owners[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                1)
          << "cell (" << r << "," << c << ")";
}

TEST(DistRanges, InnerDimensionAlignmentAcrossStyles) {
  // The stage-s broadcast alignment invariant: A's column slice owned by
  // (i=anything, j=s, k) must equal B's row slice owned by (i=s,
  // j=anything, k) for every layer k.
  const int p = 8, l = 2;
  const Index inner = 29;
  std::mutex mutex;
  // a_cols[s][k] and b_rows[s][k] collected from the ranks.
  std::map<std::pair<int, int>, LocalRange> a_cols, b_rows;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    std::lock_guard<std::mutex> lock(mutex);
    a_cols[{grid.col(), grid.layer()}] = a_style_col_range(grid, inner);
    b_rows[{grid.row(), grid.layer()}] = b_style_row_range(grid, inner);
  });
  for (const auto& [key, range] : a_cols) {
    ASSERT_TRUE(b_rows.count(key));
    EXPECT_EQ(range.start, b_rows[key].start) << key.first << "," << key.second;
    EXPECT_EQ(range.count, b_rows[key].count);
  }
}

TEST(ExtractBlock, ReindexesAndFilters) {
  TripleMat t(6, 6);
  t.push_back(0, 0, 1.0);
  t.push_back(2, 1, 2.0);
  t.push_back(3, 1, 3.0);
  t.push_back(5, 5, 4.0);
  t.push_back(2, 4, 5.0);
  const CscMat m = CscMat::from_triples(std::move(t));
  const CscMat block = extract_block(m, 2, 4, 1, 5);
  EXPECT_EQ(block.nrows(), 2);
  EXPECT_EQ(block.ncols(), 4);
  EXPECT_EQ(block.nnz(), 3);  // (2,1), (3,1), (2,4)
  TripleMat bt = block.to_triples();
  ASSERT_EQ(bt.nnz(), 3);
  EXPECT_EQ(bt.entries()[0].row, 0);  // global (2,1) -> local (0,0)
  EXPECT_EQ(bt.entries()[0].col, 0);
  EXPECT_EQ(bt.entries()[1].row, 1);  // global (3,1) -> local (1,0)
  EXPECT_EQ(bt.entries()[2].col, 3);  // global (2,4) -> local (0,3)
}

TEST(EqualFlopsCut, SlicesCarryEqualFlops) {
  const std::vector<Index> even = {2, 2, 2, 2, 2, 2, 2, 2};
  EXPECT_EQ(equal_flops_cut(even, 4), (std::vector<Index>{0, 2, 4, 6, 8}));
  // Total 32: boundary m is the first index whose prefix reaches 8m, so
  // the slices carry 9, 7, 8 and 8 flops.
  const std::vector<Index> skewed = {9, 1, 1, 1, 4, 4, 1, 1, 2, 6, 1, 1};
  EXPECT_EQ(equal_flops_cut(skewed, 4),
            (std::vector<Index>{0, 1, 5, 9, 12}));
  // Products near the Index limit: the comparison must not overflow.
  const Index big = std::numeric_limits<Index>::max() / 2;
  EXPECT_EQ(equal_flops_cut(std::vector<Index>{big, big, big}, 3),
            (std::vector<Index>{0, 1, 2, 3}));
}

TEST(EqualFlopsCut, OneHeavyIndexLeavesEmptySlices) {
  // Index 1 carries 40 of 44 flops, more than 1/4: the slices between
  // the one holding it and the last are empty.
  const std::vector<Index> f = {1, 40, 1, 1, 1};
  EXPECT_EQ(equal_flops_cut(f, 4), (std::vector<Index>{0, 2, 2, 2, 5}));
}

TEST(EqualFlopsCut, AllZeroFlopsKeepPartLow) {
  const std::vector<Index> zeros(10, 0);
  std::vector<Index> uniform;
  for (Index m = 0; m <= 4; ++m) uniform.push_back(part_low(m, 4, 10));
  EXPECT_EQ(equal_flops_cut(zeros, 4), uniform);
  EXPECT_EQ(equal_flops_cut(std::vector<Index>{}, 3),
            (std::vector<Index>{0, 0, 0, 0}));
}

TEST(EqualFlopsCut, BoundariesNestUnderDoubling) {
  // Adaptive re-batching doubles the block count of the fiber split and
  // relies on block t of n being blocks 2t, 2t+1 of 2n.
  const Index big = std::numeric_limits<Index>::max() / 4;
  std::vector<Index> geometric;
  for (Index x = 0; x < 40; ++x) geometric.push_back(Index{1} << (x % 20));
  std::vector<Index> power_law;
  for (Index x = 1; x <= 97; ++x) power_law.push_back(10000 / (x * x));
  const std::vector<std::vector<Index>> cases = {
      {9, 1, 1, 1, 4, 4, 1, 1, 2, 6, 1, 1},
      {1, 40, 1, 1, 1},
      {0, 0, 7, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0},
      {big, 1, big, 3, big},
      geometric,
      power_law,
      std::vector<Index>(11, 0),
  };
  for (const std::vector<Index>& w : cases) {
    for (Index n = 1; n <= 12; ++n) {
      const std::vector<Index> coarse = equal_flops_cut(w, n);
      const std::vector<Index> fine = equal_flops_cut(w, 2 * n);
      for (Index t = 0; t <= n; ++t)
        EXPECT_EQ(fine[static_cast<std::size_t>(2 * t)],
                  coarse[static_cast<std::size_t>(t)])
            << "n = " << n << ", t = " << t << ", |w| = " << w.size();
    }
  }
}

/// An R-MAT graph: its hubs sit at low indices, so the part_low layer
/// slices of the inner dimension carry very different flops.
CscMat skewed_graph(int scale, std::uint64_t seed) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 6.0;
  p.seed = seed;
  return generate_rmat(p);
}

struct BalanceCase {
  int p;
  int l;
};

class RebalanceInner : public ::testing::TestWithParam<BalanceCase> {};

TEST_P(RebalanceInner, MovesOnlyInnerSlicesAndEveryRankAgreesOnTheCut) {
  const auto [p, l] = GetParam();
  // Different A and B, so a mix-up of the transpose swap shows.
  const CscMat a = skewed_graph(8, 3);
  const CscMat b = skewed_graph(8, 4);
  const Index n = a.ncols();
  std::mutex mutex;
  // (inner part s, layer k) -> every range reported for it.
  std::map<std::pair<int, int>, std::vector<std::pair<Index, Index>>> seen;
  Index max_in = 0, max_cut = 0;
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const auto [ra, rb] = rebalance_inner(grid, distribute_a_style(grid, a),
                                          distribute_b_style(grid, b));
    if (world.rank() == 0) {
      max_in = world.recorder().counters().at("summa.layer_flops_max_in");
      max_cut = world.recorder().counters().at("summa.layer_flops_max");
    }
    EXPECT_EQ(ra.local.ncols(), ra.cols.count);
    EXPECT_EQ(rb.local.nrows(), rb.rows.count);
    EXPECT_EQ(ra.rows.start, a_style_row_range(grid, n).start);
    EXPECT_EQ(rb.cols.start, b_style_col_range(grid, n).start);
    testing::expect_mat_near(gather_dist(grid, ra), a, 0.0);
    testing::expect_mat_near(gather_dist(grid, rb), b, 0.0);
    // From a non-uniform input the cut is read off the senders' actual
    // ranges, so cutting again moves nothing.
    const auto [again_a, again_b] = rebalance_inner(grid, ra, rb);
    EXPECT_EQ(again_a.cols.start, ra.cols.start);
    EXPECT_EQ(again_a.cols.count, ra.cols.count);
    EXPECT_EQ(again_b.rows.start, rb.rows.start);
    testing::expect_same_arrays(again_b.local, rb.local);
    std::lock_guard<std::mutex> lock(mutex);
    seen[{grid.col(), grid.layer()}].push_back({ra.cols.start, ra.cols.count});
    seen[{grid.row(), grid.layer()}].push_back({rb.rows.start, rb.rows.count});
  });

  // A's column slice of part s at layer k (on every grid row) and B's row
  // slice of part s at layer k (on every grid column) are one range, and
  // the layers tile each part in order.
  std::vector<Index> layer_flops(static_cast<std::size_t>(l), 0);
  std::vector<Index> a_col(static_cast<std::size_t>(n)), b_row(a_col);
  for (Index t = 0; t < n; ++t)
    a_col[static_cast<std::size_t>(t)] = a.col_nnz(t);
  for (const Index r : b.rowids()) ++b_row[static_cast<std::size_t>(r)];
  Index next = 0;
  for (const auto& [key, ranges] : seen) {
    for (const auto& r : ranges) EXPECT_EQ(r, ranges.front());
    const auto [start, count] = ranges.front();
    if (key.second == 0) next = start;
    EXPECT_EQ(start, next) << "part " << key.first << " layer " << key.second;
    next = start + count;
    for (Index t = start; t < start + count; ++t) {
      const auto tu = static_cast<std::size_t>(t);
      const auto k = static_cast<std::size_t>(key.second);
      layer_flops[k] += a_col[tu] * b_row[tu];
    }
  }
  EXPECT_EQ(next, n);
  EXPECT_EQ(max_cut, *std::max_element(layer_flops.begin(), layer_flops.end()));
  EXPECT_LT(max_cut, max_in);
}

/// `m` with every column's entries in reverse order.
CscMat reversed_columns(const CscMat& m) {
  std::vector<Index> rowids;
  std::vector<Value> vals;
  for (Index j = 0; j < m.ncols(); ++j) {
    const auto rows = m.col_rowids(j);
    const auto values = m.col_vals(j);
    rowids.insert(rowids.end(), rows.rbegin(), rows.rend());
    vals.insert(vals.end(), values.rbegin(), values.rend());
  }
  return CscMat(m.nrows(), m.ncols(), {m.colptr().begin(), m.colptr().end()},
                std::move(rowids), std::move(vals));
}

/// `m` with every column's entries listed twice.
CscMat doubled_entries(const CscMat& m) {
  std::vector<Index> colptr = {0}, rowids;
  std::vector<Value> vals;
  for (Index j = 0; j < m.ncols(); ++j) {
    for (int copy = 0; copy < 2; ++copy) {
      const auto rows = m.col_rowids(j);
      const auto values = m.col_vals(j);
      rowids.insert(rowids.end(), rows.begin(), rows.end());
      vals.insert(vals.end(), values.begin(), values.end());
    }
    colptr.push_back(static_cast<Index>(rowids.size()));
  }
  return CscMat(m.nrows(), m.ncols(), std::move(colptr), std::move(rowids),
                std::move(vals));
}

TEST(GatherDist, FiberSplitCIsBitwiseTheTriplesAssembly) {
  // At l > 1 C's column blocks follow Symbolic3D's counts, not part_low,
  // so only the gathered origins place them.
  const CscMat a = skewed_graph(10, 5);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  std::atomic<bool> moved{false};
  const vmpi::RunResult run = vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const BatchedResult r = batched_summa3d<PlusTimes>(
        grid, distribute_a_style(grid, a), distribute_b_style(grid, a), 0);
    if (r.c.cols.start != a_style_col_range(grid, a.ncols()).start)
      moved = true;
    const CscMat c = gather_dist(grid, r.c);
    testing::expect_same_arrays(c, gather_by_triples(grid, r.c));
    testing::expect_mat_near(c, expected, 1e-9);
    expect_root_gather(grid, r.c, 3);
  });
  EXPECT_TRUE(moved) << "the fiber split kept part_low's column blocks";
  EXPECT_GT(run.traffic_summary().total_per_phase.count(steps::kGather), 0u);
}

TEST(GatherDist, UnsortedColumnsComeBackSorted) {
  const CscMat global = testing::random_matrix(37, 29, 4.0, 46);
  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    DistMat3D dist = distribute_a_style(grid, global);
    dist.local = reversed_columns(dist.local);
    testing::expect_same_arrays(gather_dist(grid, dist), global);
  });
}

TEST(GatherDist, DuplicateRowsAreSummed) {
  const CscMat global = testing::random_matrix(37, 29, 4.0, 47);
  CscMat twice = global;
  for (Value& v : twice.vals_mutable()) v *= 2;  // exact: v + v == 2v
  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    DistMat3D dist = distribute_b_style(grid, global);
    dist.local = doubled_entries(dist.local);
    const CscMat back = gather_dist(grid, dist);
    testing::expect_same_arrays(back, twice);
    testing::expect_same_arrays(back, gather_by_triples(grid, dist));
  });
}

TEST(GatherDist, TrafficIsItsOwnPhase) {
  const CscMat global = testing::random_matrix(20, 20, 3.0, 48);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D dist = distribute_a_style(grid, global);
    const Bytes before = world.traffic().get("default").bytes;
    gather_dist(grid, dist);
    EXPECT_EQ(world.traffic().get("default").bytes, before);
    EXPECT_GT(world.traffic().get(steps::kGather).bytes, 0);
  });
}

TEST(GatherDist, RootFormSendsOneMessagePerOtherRank) {
  // Each non-root rank sends its pieces' 16-byte origins and their wire
  // images as one gather-list message, whether it holds one piece or
  // three; the all-ranks form's two allgathers take a gather and a
  // broadcast tree each.
  const CscMat global = testing::random_matrix(33, 29, 3.0, 50);
  const int p = 8;
  std::vector<Bytes> sent_by(p);
  auto gather_traffic = [&](int pieces) {
    const vmpi::RunResult run = vmpi::run(p, [&](vmpi::Comm& world) {
      Grid3D grid(world, 2);
      const DistMat3D dist = distribute_b_style(grid, global);
      if (pieces == 0) {
        gather_dist(grid, dist);
        return;
      }
      // My block cut into `pieces` column slices, placed where they lie.
      std::vector<PlacedBlock> mine;
      Bytes bytes = 0;
      for (int k = 0; k < pieces; ++k) {
        const Index lo = part_low(k, pieces, dist.local.ncols());
        const Index hi = part_low(k + 1, pieces, dist.local.ncols());
        mine.push_back({dist.local.slice_cols(lo, hi),
                        {dist.rows.start, dist.cols.start + lo}});
        bytes += 2 * sizeof(Index) + packed_size(mine.back().block);
      }
      sent_by[static_cast<std::size_t>(world.rank())] = bytes;
      const CscMat c = gather_dist(grid, global.nrows(), global.ncols(), mine,
                                   /*root=*/0);
      if (world.rank() == 0) testing::expect_same_arrays(c, global);
    });
    return run.traffic_summary().total_per_phase.at(steps::kGather);
  };
  for (const int pieces : {1, 3}) {
    SCOPED_TRACE(pieces);
    const vmpi::PhaseTraffic root = gather_traffic(pieces);
    EXPECT_EQ(root.messages, static_cast<std::uint64_t>(p - 1));
    Bytes sent = 0;
    for (int r = 1; r < p; ++r) sent += sent_by[static_cast<std::size_t>(r)];
    EXPECT_EQ(root.bytes, sent);
  }
  EXPECT_EQ(gather_traffic(0).messages,
            static_cast<std::uint64_t>(4 * (p - 1)));
}

TEST(GatherDist, AllgatherCountsAreAGatherPlusABroadcastTree) {
  // allgather_payload and its typed forms: p - 1 gather messages of each
  // non-root rank's bytes, then a binomial broadcast (p - 1 messages) of
  // the concatenation with an 8-byte length per rank.
  for (const int p : {2, 4, 7}) {
    std::vector<std::size_t> len(static_cast<std::size_t>(p));
    const vmpi::RunResult run = vmpi::run(p, [&](vmpi::Comm& world) {
      const int me = world.rank();
      std::vector<Index> mine(static_cast<std::size_t>(3 * me + 1),
                              Index{me});
      len[static_cast<std::size_t>(me)] = mine.size() * sizeof(Index);
      vmpi::ScopedPhase phase(world.traffic(), "probe");
      EXPECT_EQ(world.allgather_vec<Index>(mine).size(),
                static_cast<std::size_t>(3 * p * (p - 1) / 2 + p));
      EXPECT_EQ(world.allgather_value<int>(me).at(p - 1), p - 1);
    });
    const vmpi::PhaseTraffic t =
        run.traffic_summary().total_per_phase.at("probe");
    Bytes gathered = 0, packed = 8 * static_cast<Bytes>(p);
    for (int r = 0; r < p; ++r) {
      if (r > 0) gathered += len[static_cast<std::size_t>(r)];
      packed += len[static_cast<std::size_t>(r)];
    }
    const auto links = static_cast<Bytes>(p - 1);
    // allgather_vec, then allgather_value's p - 1 ints.
    EXPECT_EQ(t.messages, static_cast<std::uint64_t>(4 * (p - 1))) << p;
    EXPECT_EQ(t.bytes, gathered + links * packed + links * sizeof(int) +
                           links * (8 * static_cast<Bytes>(p) +
                                    sizeof(int) * static_cast<Bytes>(p)))
        << p;
  }
}

/// One column-major block over caller-owned arrays.
struct Block {
  Index nrows, ncols;
  std::vector<Index> colptr, rowids;
  std::vector<Value> vals;
  CscView view() const {
    return CscView(nrows, ncols, colptr, rowids, vals, Payload{});
  }
};

TEST(AssembleBlocks, SortsAndSumsAColumnThatComesOutOfOrder) {
  // Block 0 holds rows 2..3 of column 1, block 1 rows 0..1 of columns 0..1
  // with an unsorted, duplicated column; block 2 is empty.
  const Block lower{2, 1, {0, 2}, {1, 0}, {4.0, 3.0}};
  const Block upper{2, 2, {0, 1, 4}, {0, 1, 0, 1}, {1.0, 0.5, 2.0, 0.25}};
  const Block empty{0, 2, {0, 0, 0}, {}, {}};
  const std::vector<CscView> blocks = {lower.view(), upper.view(),
                                       empty.view()};
  const std::vector<std::pair<Index, Index>> origins = {{2, 1}, {0, 0}, {1, 0}};
  const CscMat m = assemble_blocks(4, 2, blocks, origins);
  EXPECT_EQ(std::vector<Index>(m.colptr().begin(), m.colptr().end()),
            (std::vector<Index>{0, 1, 5}));
  EXPECT_EQ(std::vector<Index>(m.rowids().begin(), m.rowids().end()),
            (std::vector<Index>{0, 0, 1, 2, 3}));
  EXPECT_EQ(std::vector<Value>(m.vals().begin(), m.vals().end()),
            (std::vector<Value>{1.0, 2.0, 0.75, 3.0, 4.0}));
}

TEST(AssembleBlocks, OverlappingBlocksFailTheCheck) {
  using Origins = std::vector<std::pair<Index, Index>>;
  const Block b{2, 2, {0, 1, 2}, {0, 1}, {1.0, 2.0}};
  const std::vector<CscView> two = {b.view(), b.view()};
  EXPECT_THROW(assemble_blocks(3, 3, two, Origins{{0, 0}, {1, 1}}),
               std::logic_error);
  // Touching rectangles do not overlap.
  EXPECT_EQ(assemble_blocks(4, 4, two, Origins{{0, 0}, {2, 2}}).nnz(), 4);
  // A block reaching past the matrix fails too.
  EXPECT_THROW(assemble_blocks(3, 3, std::span(two).first(1), Origins{{2, 0}}),
               std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Grids, RebalanceInner,
                         ::testing::Values(BalanceCase{4, 4},   // 1x1x4
                                           BalanceCase{8, 2},   // 2x2x2
                                           BalanceCase{16, 4},  // 2x2x4
                                           BalanceCase{18, 2}));  // 3x3x2

}  // namespace
}  // namespace casp
