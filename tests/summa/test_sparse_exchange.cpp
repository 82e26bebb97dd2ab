// Sparsity-aware A exchange (summa/sparse_comm.hpp): protocol unit tests,
// bit-identity against the dense broadcast path across grids and input
// families, the shipped<=logical ledger invariant with exact reconciliation
// of the report's new columns, the ledger's message count against the cost
// model, the degenerate all-columns-needed fallback, seeded mutations of
// the decoder inputs (SparseDecoderMutation), and (FaultSparseExchange,
// swept by check.sh stage (f)) completion under injected transient send
// faults and corrupted replies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gen/protein.hpp"
#include "gen/rmat.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "model/costs.hpp"
#include "obs/report.hpp"
#include "sparse/serialize.hpp"
#include "summa/batched.hpp"
#include "summa/sparse_comm.hpp"
#include "summa/summa3d.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

std::uint64_t sweep_seed() {
  const char* env = std::getenv("CASP_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

// ---------------------------------------------------------------------------
// Protocol units: need-lists, replies, reassembly.

TEST(SparseComm, RowSupportIsSortedDistinctRows) {
  TripleMat t(6, 3);
  t.push_back(4, 0, 1.0);
  t.push_back(1, 0, 1.0);
  t.push_back(4, 2, 1.0);
  t.push_back(0, 2, 1.0);
  const CscMat b = CscMat::from_triples(std::move(t));
  const std::vector<Index> support = row_support(b);
  EXPECT_EQ(support, (std::vector<Index>{0, 1, 4}));
}

TEST(SparseComm, CoalesceBridgesSmallGapsOnly) {
  const std::vector<Index> cols = {0, 1, 5, 20, 21};
  const auto tight = coalesce_cols(cols, 0);
  ASSERT_EQ(tight.size(), 3u);
  EXPECT_EQ(tight[0].begin, 0);
  EXPECT_EQ(tight[0].end, 2);
  EXPECT_EQ(tight[1].begin, 5);
  EXPECT_EQ(tight[1].end, 6);
  EXPECT_EQ(tight[2].begin, 20);
  EXPECT_EQ(tight[2].end, 22);
  const auto bridged = coalesce_cols(cols, 3);
  ASSERT_EQ(bridged.size(), 2u);  // gap of 3 bridged, gap of 14 not
  EXPECT_EQ(bridged[0].begin, 0);
  EXPECT_EQ(bridged[0].end, 6);
  EXPECT_EQ(bridged[1].begin, 20);
  EXPECT_EQ(bridged[1].end, 22);
}

TEST(SparseComm, NeedRequestRoundTrips) {
  const std::vector<ColRange> ranges = {{2, 5}, {9, 10}, {12, 40}};
  const Payload req = pack_need_request(ranges);
  const std::vector<ColRange> back = unpack_need_request(req);
  ASSERT_EQ(back.size(), ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(back[i].begin, ranges[i].begin);
    EXPECT_EQ(back[i].end, ranges[i].end);
  }
  // Malformed wire bytes must be rejected, not trusted.
  EXPECT_THROW((void)unpack_need_request(
                   pack_need_request(std::vector<ColRange>{{5, 3}})),
               std::logic_error);
}

TEST(SparseComm, SparseReplyReassemblesRequestedColumnsBitIdentically) {
  const CscMat block = testing::random_matrix(40, 30, 2.5, 901);
  const Payload packed = pack_csc_payload(block);
  const std::vector<ColRange> ranges = {{0, 4}, {11, 13}, {22, 30}};
  vmpi::SparseReply reply =
      make_sparse_reply(packed, pack_need_request(ranges));
  ASSERT_GE(reply.parts.size(), 1u);
  const CscView got = assemble_sparse_block(reply.parts, block.nrows(), block.ncols());
  EXPECT_EQ(got.nrows(), block.nrows());
  EXPECT_EQ(got.ncols(), block.ncols());
  for (const ColRange& r : ranges) {
    for (Index j = r.begin; j < r.end; ++j) {
      const auto want_rows = block.col_rowids(j);
      const auto got_rows = got.col_rowids(j);
      ASSERT_EQ(got_rows.size(), want_rows.size()) << "column " << j;
      for (std::size_t k = 0; k < want_rows.size(); ++k) {
        EXPECT_EQ(got_rows[k], want_rows[k]);
        EXPECT_EQ(got.col_vals(j)[k], block.col_vals(j)[k]);
      }
    }
  }
}

TEST(SparseComm, ZeroCopyReplyNeverDeepCopiesBlockBytes) {
  const CscMat block = testing::random_matrix(64, 64, 3.0, 902);
  const Payload packed = pack_csc_payload(block);
  const std::vector<ColRange> ranges = {{3, 9}, {40, 50}};
  const std::uint64_t before = Payload::deep_copies();
  vmpi::SparseReply reply =
      make_sparse_reply(packed, pack_need_request(ranges));
  EXPECT_EQ(Payload::deep_copies(), before)
      << "sender-side reply must be subviews only";
  ASSERT_FALSE(reply.parts.empty());
}

TEST(SparseComm, WholeBlockRequestFallsBackToDenseSubview) {
  const CscMat block = testing::random_matrix(32, 20, 2.0, 903);
  const Payload packed = pack_csc_payload(block);
  const std::vector<ColRange> all = {{0, block.ncols()}};
  vmpi::SparseReply reply = make_sparse_reply(packed, pack_need_request(all));
  // A full-width sparse reply costs strictly more than the block (extra
  // descriptor words), so the packer must choose the dense fallback: one
  // kind word plus one whole-block subview.
  ASSERT_EQ(reply.parts.size(), 2u);
  EXPECT_EQ(reply.parts[0].size(), sizeof(std::uint64_t));
  EXPECT_EQ(reply.parts[1].size(), packed.size());
  EXPECT_EQ(reply.parts[1].data(), packed.data());  // same bytes, no copy
  const CscView got = assemble_sparse_block(reply.parts, block.nrows(), block.ncols());
  EXPECT_EQ(got.nnz(), block.nnz());
}

TEST(SparseComm, CostModelSparseTermDropsWithNeedFraction) {
  const Machine m = cori_knl();
  ProblemStats stats;
  stats.nnz_a = stats.nnz_b = 1 << 22;
  stats.flops = 1 << 26;
  ModelConfig config;
  config.p = 64;
  config.l = 4;
  config.b = 2;
  const double dense = predict_steps(m, stats, config).at(steps::kABcast);
  config.sparse_comm = true;
  stats.a_need_fraction = 1.0;
  const double sparse_full =
      predict_steps(m, stats, config).at(steps::kABcast);
  stats.a_need_fraction = 0.25;
  const double sparse_quarter =
      predict_steps(m, stats, config).at(steps::kABcast);
  // At need-fraction 1 only the latency shape changes; at 0.25 the
  // bandwidth term shrinks 4x, so the prediction strictly improves.
  EXPECT_LT(sparse_quarter, sparse_full);
  EXPECT_LT(sparse_quarter, dense);
}

// ---------------------------------------------------------------------------
// End-to-end: sparse_comm toggle across grids and input families.

struct GridCase {
  int p;
  int l;
};

class SparseExchange : public ::testing::TestWithParam<GridCase> {};

vmpi::RunResult run_summa(const CscMat& a, const CscMat& b, int p, int l,
                          bool sparse_comm, CscMat* out = nullptr) {
  return vmpi::run(p, [&, l, sparse_comm](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    SummaOptions opts;
    opts.sparse_comm = sparse_comm;
    DistMat3D dc;
    dc.global_rows = a.nrows();
    dc.global_cols = b.ncols();
    dc.rows = a_style_row_range(grid, a.nrows());
    dc.cols = a_style_col_range(grid, b.ncols());
    dc.local = summa3d<PlusTimes>(grid, da.local, db.local, opts);
    CscMat gathered = gather_dist(grid, dc);
    if (out != nullptr && world.rank() == 0) *out = std::move(gathered);
  });
}

CscMat skewed_rmat(Index scale, std::uint64_t seed) {
  RmatParams p;
  p.scale = static_cast<int>(scale);
  p.edge_factor = 4.0;
  p.seed = seed;
  return generate_rmat(p);
}

CscMat protein_like(Index n, std::uint64_t seed) {
  ProteinParams p;
  p.n = n;
  p.min_family = 2;
  p.max_family = n / 4;
  p.seed = seed;
  return generate_protein_similarity(p).mat;
}

TEST_P(SparseExchange, BitIdenticalToDenseAcrossInputFamilies) {
  const auto [p, l] = GetParam();
  const std::vector<std::pair<std::string, CscMat>> inputs = {
      {"er", testing::random_matrix(48, 48, 3.0, 910)},
      {"rmat", skewed_rmat(6, 911)},
      {"protein", protein_like(40, 912)},
  };
  for (const auto& [name, a] : inputs) {
    SCOPED_TRACE(name);
    const CscMat expected = reference_multiply<PlusTimes>(a, a);
    CscMat dense, sparse;
    run_summa(a, a, p, l, /*sparse_comm=*/false, &dense);
    run_summa(a, a, p, l, /*sparse_comm=*/true, &sparse);
    testing::expect_mat_near(dense, expected, 1e-9);
    testing::expect_mat_near(sparse, dense, 0.0);
  }
}

TEST_P(SparseExchange, ShippedNeverExceedsLogicalAndColumnsReconcile) {
  const auto [p, l] = GetParam();
  const CscMat a = skewed_rmat(6, 913);

  const vmpi::RunResult result = run_summa(a, a, p, l, /*sparse_comm=*/true);
  const obs::RunReport report = obs::build_report(result);
  for (const auto& [phase, e] : report.phases) {
    EXPECT_LE(e.total.shipped, e.total.bytes) << "phase " << phase;
    EXPECT_LE(e.max.shipped, e.max.bytes) << "phase " << phase;
    if (phase != steps::kABcast) {
      // Only the sparse A exchange elides bytes; every other phase ships
      // its full logical volume.
      EXPECT_EQ(e.total.shipped, e.total.bytes) << "phase " << phase;
    }
  }
  // The per-phase totals and the rank x rank matrices are two views of the
  // same record_send/record_unshipped calls: cell sums reconcile exactly
  // for all three columns.
  for (const auto& [phase, m] : report.matrices) {
    std::uint64_t msgs = 0, bytes = 0, shipped = 0;
    for (std::size_t i = 0; i < m.messages.size(); ++i) {
      msgs += m.messages[i];
      bytes += m.bytes[i];
      shipped += m.shipped[i];
    }
    const obs::PhaseEntry& e = report.phases.at(phase);
    EXPECT_EQ(msgs, e.total.messages) << "phase " << phase;
    EXPECT_EQ(bytes, static_cast<std::uint64_t>(e.total.bytes))
        << "phase " << phase;
    EXPECT_EQ(shipped, static_cast<std::uint64_t>(e.total.shipped))
        << "phase " << phase;
  }
  // The dense path must not use the new column at all: shipped == logical
  // in every phase, including A-Bcast.
  const obs::RunReport dense_report =
      obs::build_report(run_summa(a, a, p, l, /*sparse_comm=*/false));
  for (const auto& [phase, e] : dense_report.phases)
    EXPECT_EQ(e.total.shipped, e.total.bytes) << "phase " << phase;
}

TEST_P(SparseExchange, SkewedInputsShipFewerABcastBytesOnRealGrids) {
  const auto [p, l] = GetParam();
  if (p / l <= 1) GTEST_SKIP() << "q=1 grids have no A exchange traffic";
  // Sparser and more skewed than the bit-identity inputs: per-block column
  // support must have real gaps even after layers shrink the stage blocks,
  // or metadata overhead swamps the savings on the layered grids.
  RmatParams rp;
  rp.scale = 9;
  rp.edge_factor = 2.0;
  rp.a = 0.65;
  rp.d = 0.05;
  rp.b = rp.c = 0.15;
  rp.seed = 914;
  const CscMat a = generate_rmat(rp);
  const auto dense =
      run_summa(a, a, p, l, /*sparse_comm=*/false).traffic_summary();
  const auto sparse =
      run_summa(a, a, p, l, /*sparse_comm=*/true).traffic_summary();
  const vmpi::PhaseTraffic& d = dense.total_per_phase.at(steps::kABcast);
  const vmpi::PhaseTraffic& s = sparse.total_per_phase.at(steps::kABcast);
  // On a heavy-tailed input the need-lists trim real volume: strictly
  // fewer wire bytes than the dense broadcast shipped (the >=30% bench
  // acceptance is asserted at bench scale by bench_sparse_exchange).
  EXPECT_LT(s.shipped, d.bytes);
  // And B-Bcast is untouched by the A-side rework.
  EXPECT_EQ(sparse.total_per_phase.at(steps::kBBcast).bytes,
            dense.total_per_phase.at(steps::kBBcast).bytes);
}

TEST_P(SparseExchange, BatchedSymbolicHintsPreserveResults) {
  const auto [p, l] = GetParam();
  const Index n = 40;
  const CscMat a = protein_like(n, 915);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  for (const bool sparse_comm : {false, true}) {
    SCOPED_TRACE(sparse_comm ? "sparse" : "dense");
    vmpi::run(p, [&, l, sparse_comm](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      SummaOptions opts;
      opts.sparse_comm = sparse_comm;
      opts.force_batches = 0;  // run the symbolic pass: hints + batch count
      const BatchedResult r =
          batched_summa3d<PlusTimes>(grid, da, db, /*total_memory=*/0, opts);
      // The symbolic pass produced per-column hints covering my B part.
      ASSERT_EQ(static_cast<Index>(r.symbolic.col_nnz.size()),
                db.local.ncols());
      testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-9);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, SparseExchange,
                         ::testing::Values(GridCase{1, 1}, GridCase{2, 2},
                                           GridCase{4, 1}, GridCase{4, 4},
                                           GridCase{8, 2}, GridCase{16, 4}));

TEST(SparseExchangeDegenerate, AllColumnsNeededCostsAtMostDensePlusMetadata) {
  // A fully dense B makes every stage request every A column, so each
  // reply takes the kind-0 fallback. Bound the regression exactly: the
  // sparse run may exceed the dense run only by the fixed metadata — one
  // request and the reply's kind word per (stage, peer) pair.
  const int p = 4, l = 1;
  const Index n = 24;
  const CscMat a = testing::random_matrix(n, n, 3.0, 916);
  const CscMat b = testing::random_matrix(n, n, static_cast<double>(n), 917);

  const auto dense =
      run_summa(a, b, p, l, /*sparse_comm=*/false).traffic_summary();
  const auto sparse =
      run_summa(a, b, p, l, /*sparse_comm=*/true).traffic_summary();
  const vmpi::PhaseTraffic& d = dense.total_per_phase.at(steps::kABcast);
  const vmpi::PhaseTraffic& s = sparse.total_per_phase.at(steps::kABcast);

  const int q = 2;  // sqrt(p / l)
  const std::uint64_t pairs = static_cast<std::uint64_t>(l) * q * q * (q - 1);
  // request = [nranges][begin,end] = 24 B; kind word 8 B.
  const Bytes metadata_bound = static_cast<Bytes>(pairs) * (24 + 8);
  EXPECT_LE(s.shipped, d.bytes + metadata_bound);
  EXPECT_EQ(s.shipped, s.bytes)
      << "dense fallback must not book unshipped credit";
}

TEST(SparseExchangeLedger, ABcastIsOneRequestPlusOneReplyPerStagePeer) {
  // model/costs.cpp charges a sparse stage 2 messages per peer: the
  // need-list and the reply. The ledger must count exactly that, however
  // many column ranges a reply carries: over a layer's q stages, each of
  // its q process rows exchanges with q - 1 peers.
  const CscMat a = skewed_rmat(7, 919);
  for (const auto& [p, q] : {std::pair{4, 2}, std::pair{9, 3}, std::pair{16, 4}}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const int l = 1;
    const auto traffic =
        run_summa(a, a, p, l, /*sparse_comm=*/true).traffic_summary();
    const vmpi::PhaseTraffic& t = traffic.total_per_phase.at(steps::kABcast);
    const std::uint64_t stage_peers =
        static_cast<std::uint64_t>(l) * q * q * (q - 1);
    EXPECT_EQ(t.messages, 2 * stage_peers);
    EXPECT_LT(t.shipped, t.bytes) << "the skewed input must ship sparse replies";
  }
}

// ---------------------------------------------------------------------------
// SparseDecoderMutation: seeded splitmix64 mutations of what the decoders
// read off the wire. A mutant of the structure (truncation, a wrong part
// count, reordered or overlapping ranges, a flipped bit in a count, a
// shape word, a range bound or a colptr slice's ends) must fail a
// CASP_CHECK; a mutant the structure cannot expose must still decode to a
// block that is consistent with what it says. Nothing may crash, allocate
// from a corrupt count or read past a part. The rowids and vals parts are
// content: the fault-run frame checksum guards them, not the decoder, so
// they are not mutated. The colptr words inside a slice, and inside the
// dense fallback's block, are content too: a flip there fails the
// monotonicity check or keeps the shape and nnz.
// check.sh runs this suite in its ASan+UBSan stage.

/// Runs `decode`. True if it failed a CASP_CHECK, false if it returned; any
/// other exception escapes and fails the test.
template <typename F>
bool fails_check(F&& decode) {
  try {
    decode();
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    if (what.rfind("CASP_CHECK failed", 0) != 0) throw;
    return true;
  }
  return false;
}

std::vector<std::byte> bytes_of(const Payload& p) {
  return {p.data(), p.data() + p.size()};
}

void flip_bit(std::vector<std::byte>& bytes, std::size_t bit) {
  bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

std::uint64_t word_at(const Payload& p, std::size_t w) {
  std::uint64_t v = 0;
  std::memcpy(&v, p.data() + w * sizeof(v), sizeof(v));
  return v;
}

void set_word(std::vector<std::byte>& bytes, std::size_t w, std::uint64_t v) {
  std::memcpy(bytes.data() + w * sizeof(v), &v, sizeof(v));
}

bool same_view(const CscView& x, const CscView& y) {
  return x.nrows() == y.nrows() && x.ncols() == y.ncols() &&
         std::equal(x.colptr().begin(), x.colptr().end(), y.colptr().begin(),
                    y.colptr().end()) &&
         std::equal(x.rowids().begin(), x.rowids().end(), y.rowids().begin(),
                    y.rowids().end()) &&
         x.vals().size() == y.vals().size() &&
         std::memcmp(x.vals().data(), y.vals().data(),
                     x.vals().size() * sizeof(Value)) == 0;
}

/// True iff `got` holds exactly the columns `ranges` name, each
/// bit-identical to `block`'s, and nothing else.
bool holds_exactly(const CscView& got, const CscMat& block,
                   const std::vector<ColRange>& ranges) {
  if (got.nrows() != block.nrows() || got.ncols() != block.ncols())
    return false;
  std::vector<bool> wanted(static_cast<std::size_t>(block.ncols()), false);
  for (const ColRange& r : ranges)
    for (Index j = r.begin; j < r.end; ++j)
      wanted[static_cast<std::size_t>(j)] = true;
  for (Index j = 0; j < block.ncols(); ++j) {
    const auto rows = got.col_rowids(j);
    const auto vals = got.col_vals(j);
    if (!wanted[static_cast<std::size_t>(j)]) {
      if (!rows.empty()) return false;
      continue;
    }
    const auto want_rows = block.col_rowids(j);
    const auto want_vals = block.col_vals(j);
    if (!std::equal(rows.begin(), rows.end(), want_rows.begin(),
                    want_rows.end()) ||
        vals.size() != want_vals.size() ||
        std::memcmp(vals.data(), want_vals.data(),
                    vals.size() * sizeof(Value)) != 0)
      return false;
  }
  return true;
}

/// One clean exchange: a random block, a random need-list (every fourth
/// asks for the whole block, which takes the dense fallback), its reply.
struct DecoderCase {
  CscMat block;
  std::vector<ColRange> ranges;
  Payload request;
  std::vector<Payload> parts;
};

DecoderCase decoder_case(std::uint64_t& state) {
  DecoderCase c;
  const auto nrows = static_cast<Index>(8 + splitmix64(state) % 40);
  const auto ncols = static_cast<Index>(8 + splitmix64(state) % 40);
  c.block = testing::random_matrix(nrows, ncols, 2.5, splitmix64(state));
  if (splitmix64(state) % 4 == 0) {
    c.ranges = {{0, ncols}};
  } else {
    Index col = static_cast<Index>(splitmix64(state) % 3);
    while (col < ncols && c.ranges.size() < 6) {
      const Index end = std::min<Index>(
          ncols, col + 1 + static_cast<Index>(splitmix64(state) % 4));
      c.ranges.push_back({col, end});
      col = end + 1 + static_cast<Index>(splitmix64(state) % 6);
    }
  }
  c.request = pack_need_request(c.ranges);
  c.parts = make_sparse_reply(pack_csc_payload(c.block), c.request).parts;
  return c;
}

TEST(SparseDecoderMutation, NeedRequestMutantsFailACheckOrNameTheirOwnColumns) {
  std::uint64_t state = 0x5eed0023;
  int checked = 0, decoded = 0;
  for (int i = 0; i < 400; ++i) {
    const DecoderCase c = decoder_case(state);
    const std::size_t words = c.request.size() / sizeof(std::uint64_t);
    std::vector<std::byte> bytes = bytes_of(c.request);
    bool structural = true;
    switch (splitmix64(state) % 4) {
      case 0:  // truncation
        bytes.resize(splitmix64(state) % bytes.size());
        break;
      case 1: {  // a flipped bit; in a range bound it may name other columns
        // Half the flips hit the low bits, which move a bound by a few
        // columns and so can leave the list ascending.
        const std::size_t w = splitmix64(state) % words;
        const std::uint64_t bits = splitmix64(state) % 2 == 0 ? 64 : 6;
        flip_bit(bytes, w * 64 + splitmix64(state) % bits);
        structural = w == 0;
        break;
      }
      case 2: {  // two ranges swapped, or one appended out of order
        if (c.ranges.size() >= 2) {
          const std::size_t k = splitmix64(state) % (c.ranges.size() - 1);
          set_word(bytes, 1 + 2 * k, word_at(c.request, 3 + 2 * k));
          set_word(bytes, 2 + 2 * k, word_at(c.request, 4 + 2 * k));
          set_word(bytes, 3 + 2 * k, word_at(c.request, 1 + 2 * k));
          set_word(bytes, 4 + 2 * k, word_at(c.request, 2 + 2 * k));
        } else {
          bytes.resize(bytes.size() + 2 * sizeof(std::uint64_t));
          set_word(bytes, 0, c.ranges.size() + 1);
          set_word(bytes, words, 0);
          set_word(bytes, words + 1, 1);
        }
        break;
      }
      default: {  // a range stretched over its successor's first column
        if (c.ranges.size() >= 2) {
          const std::size_t k = splitmix64(state) % (c.ranges.size() - 1);
          set_word(bytes, 2 + 2 * k,
                   static_cast<std::uint64_t>(c.ranges[k + 1].begin + 1));
        } else {
          set_word(bytes, 2, static_cast<std::uint64_t>(c.ranges[0].begin));
        }
        break;
      }
    }
    const Payload mutant = Payload::wrap(std::move(bytes));
    std::vector<ColRange> got;
    if (fails_check([&] { got = unpack_need_request(mutant); })) {
      ++checked;
      continue;
    }
    EXPECT_FALSE(structural) << "mutant " << i << " decoded";
    // A request that still decodes names ascending columns; the root
    // either refuses a range past its block or serves exactly them.
    std::vector<Payload> parts;
    if (fails_check([&] {
          parts = make_sparse_reply(pack_csc_payload(c.block), mutant).parts;
        })) {
      ++checked;
      continue;
    }
    const CscView block =
        assemble_sparse_block(parts, c.block.nrows(), c.block.ncols());
    EXPECT_TRUE(holds_exactly(block, c.block, got)) << "mutant " << i;
    ++decoded;
  }
  EXPECT_GT(checked, 250);
  EXPECT_GT(decoded, 0);
}

TEST(SparseDecoderMutation, ReplyMutantsFailACheckOrDecodeToTheSameBlock) {
  std::uint64_t state = 0x5eed1009;
  int checked = 0, content = 0;
  for (int i = 0; i < 2000; ++i) {
    const DecoderCase c = decoder_case(state);
    const Index nrows = c.block.nrows();
    const Index ncols = c.block.ncols();
    const CscView want = assemble_sparse_block(c.parts, nrows, ncols);
    const bool dense = word_at(c.parts[0], 0) == 0;
    const std::size_t nranges = dense ? 0 : word_at(c.parts[0], 3);
    std::vector<Payload> parts = c.parts;
    bool structural = true;
    switch (splitmix64(state) % 4) {
      case 0: {  // truncation of a non-empty part
        std::size_t k = splitmix64(state) % parts.size();
        while (parts[k].size() == 0) k = (k + 1) % parts.size();
        std::vector<std::byte> bytes = bytes_of(parts[k]);
        bytes.resize(splitmix64(state) % bytes.size());
        parts[k] = Payload::wrap(std::move(bytes));
        break;
      }
      case 1: {  // wrong part count: one dropped, duplicated or appended
        const std::size_t k = splitmix64(state) % parts.size();
        switch (splitmix64(state) % 3) {
          case 0:
            parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(k));
            if (parts.empty()) parts.emplace_back();
            break;
          case 1:
            parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(k),
                         parts[k]);
            break;
          default:
            parts.emplace_back();
            break;
        }
        break;
      }
      case 2: {  // a flipped bit in the descriptor, or in the dense block's
                 // header or colptr
        const Payload& target = dense ? parts[1] : parts[0];
        const std::size_t words =
            dense ? 3 + static_cast<std::size_t>(ncols) + 1
                  : target.size() / sizeof(std::uint64_t);
        const std::size_t w = splitmix64(state) % words;
        std::vector<std::byte> bytes = bytes_of(target);
        flip_bit(bytes, w * 64 + splitmix64(state) % 64);
        (dense ? parts[1] : parts[0]) = Payload::wrap(std::move(bytes));
        // The dense block's colptr follows its 3-word header; its two ends
        // are structure, the words between them content.
        if (dense && w > 3 && w < 3 + static_cast<std::size_t>(ncols))
          structural = false;
        if (!dense && w >= 4 + 2 * nranges) {
          // A colptr slice word: its two ends are structure (they fix the
          // range's nnz), the words between them content.
          std::size_t sw = 4 + 2 * nranges;
          for (std::size_t r = 0; r < nranges; ++r) {
            const std::size_t width =
                word_at(c.parts[0], 5 + 2 * r) - word_at(c.parts[0], 4 + 2 * r) + 1;
            if (w > sw && w < sw + width - 1) structural = false;
            sw += width;
          }
        }
        break;
      }
      default: {  // two ranges swapped, or one stretched over its successor
        if (nranges < 2) {
          parts.insert(parts.begin(), parts[0]);  // a second descriptor
          break;
        }
        const std::size_t k = splitmix64(state) % (nranges - 1);
        std::vector<std::byte> bytes = bytes_of(parts[0]);
        if (splitmix64(state) % 2 == 0) {
          for (std::size_t off = 0; off < 2; ++off) {
            set_word(bytes, 4 + 2 * k + off, word_at(parts[0], 6 + 2 * k + off));
            set_word(bytes, 6 + 2 * k + off, word_at(parts[0], 4 + 2 * k + off));
          }
        } else {
          set_word(bytes, 5 + 2 * k, word_at(parts[0], 6 + 2 * k) + 1);
        }
        parts[0] = Payload::wrap(std::move(bytes));
        break;
      }
    }
    CscView got;
    if (fails_check([&] { got = assemble_sparse_block(parts, nrows, ncols); })) {
      ++checked;
      continue;
    }
    if (structural) {
      EXPECT_TRUE(same_view(got, want)) << "mutant " << i;
      continue;
    }
    // A monotone flip inside a slice moves entries between the range's
    // columns: same shape and nnz, colptr still ascending from 0.
    ++content;
    EXPECT_EQ(got.nrows(), nrows);
    EXPECT_EQ(got.ncols(), ncols);
    EXPECT_EQ(got.nnz(), want.nnz());
    EXPECT_TRUE(std::is_sorted(got.colptr().begin(), got.colptr().end()));
  }
  EXPECT_GT(checked, 1500);
}

TEST(SparseDecoderMutation, DenseBlockHeaderBitFlipsNeverWrapTheSizeCheck) {
  // Every single-bit flip of a packed block's three header words. Bits 61
  // and 62 of ncols scale to a multiple of 2^64 in the size arithmetic, so
  // the decoder must bound the counts before it sizes the layout.
  const CscMat block = testing::random_matrix(24, 20, 2.0, 920);
  const Payload packed = pack_csc_payload(block);
  const Payload dense_kind = Payload::wrap(std::vector<std::byte>(8));
  const std::vector<Payload> clean = {dense_kind, packed};
  (void)assemble_sparse_block(clean, block.nrows(), block.ncols());
  for (std::size_t bit = 0; bit < 3 * 64; ++bit) {
    std::vector<std::byte> bytes = bytes_of(packed);
    flip_bit(bytes, bit);
    const Payload mutant = Payload::wrap(std::move(bytes));
    EXPECT_TRUE(fails_check([&] { (void)unpack_csc_view(mutant); }) ||
                bit / 64 == 0)
        << "bit " << bit;
    const std::vector<Payload> parts = {dense_kind, mutant};
    EXPECT_TRUE(fails_check([&] {
      (void)assemble_sparse_block(parts, block.nrows(), block.ncols());
    })) << "bit " << bit;
  }
}

TEST(SparseDecoderMutation, DenseBlockColptrFlipsFailOrKeepEverySpanInside) {
  // Every single-bit flip of a packed block's interior colptr words. A flip
  // that breaks monotonicity would give a column span past nnz (or a
  // negative one), so the decoder must refuse it; any other flip only
  // moves entries between neighbouring columns.
  const CscMat block = testing::random_matrix(24, 20, 2.0, 921);
  const Payload packed = pack_csc_payload(block);
  const std::size_t ncols = static_cast<std::size_t>(block.ncols());
  int refused = 0, kept = 0;
  for (std::size_t w = 4; w < 3 + ncols; ++w) {
    for (std::size_t bit = 0; bit < 64; ++bit) {
      std::vector<std::byte> bytes = bytes_of(packed);
      flip_bit(bytes, w * 64 + bit);
      const Payload mutant = Payload::wrap(std::move(bytes));
      CscView got;
      if (fails_check([&] { got = unpack_csc_view(mutant); })) {
        ++refused;
        continue;
      }
      ++kept;
      EXPECT_EQ(got.nnz(), block.nnz()) << "word " << w << " bit " << bit;
      EXPECT_TRUE(std::is_sorted(got.colptr().begin(), got.colptr().end()))
          << "word " << w << " bit " << bit;
      EXPECT_LE(got.colptr().back(), block.nnz());
    }
  }
  // Every flip of a high bit leaves colptr non-monotone.
  EXPECT_GE(refused, static_cast<int>(ncols - 1) * 32);
  EXPECT_GT(kept, 0);
}

// ---------------------------------------------------------------------------
// FaultSparseExchange: stage (f) sweeps this suite over CASP_FAULT_SEED.

TEST(FaultSparseExchange, TransientSendFaultsRetryToTheSameResult) {
  const int p = 4, l = 1;
  const CscMat a = skewed_rmat(5, 918);
  CscMat clean;
  run_summa(a, a, p, l, /*sparse_comm=*/true, &clean);

  vmpi::RunOptions opts;
  vmpi::FaultPlan plan;
  plan.seed = sweep_seed();
  plan.send_fail = 0.05;
  plan.retry.base_delay_us = 1;
  plan.retry.cap_delay_us = 4;
  opts.faults = plan;

  CscMat faulty;
  const vmpi::RunResult result = vmpi::run(
      p,
      [&](vmpi::Comm& world) {
        Grid3D grid(world, l);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, a);
        SummaOptions sopts;
        sopts.sparse_comm = true;
        DistMat3D dc;
        dc.global_rows = a.nrows();
        dc.global_cols = a.ncols();
        dc.rows = a_style_row_range(grid, a.nrows());
        dc.cols = a_style_col_range(grid, a.ncols());
        dc.local = summa3d<PlusTimes>(grid, da.local, db.local, sopts);
        CscMat gathered = gather_dist(grid, dc);
        if (world.rank() == 0) faulty = std::move(gathered);
      },
      opts);
  ASSERT_FALSE(result.failure.has_value())
      << result.failure->kind << ": " << result.failure->what;
  testing::expect_mat_near(faulty, clean, 0.0);
  // Retransmissions only ever add to both ledger columns together, so the
  // invariant survives injected faults too.
  for (const auto& [phase, t] : result.traffic_summary().total_per_phase)
    EXPECT_LE(t.shipped, t.bytes) << "phase " << phase;
}

TEST(FaultSparseExchange, CorruptedGatherListRepliesAreRejectedAndRetried) {
  vmpi::RunOptions opts;
  vmpi::FaultPlan plan;
  plan.seed = sweep_seed();
  plan.corrupt_prob = 0.25;
  plan.retry.max_attempts = 12;
  plan.retry.base_delay_us = 1;
  plan.retry.cap_delay_us = 4;
  opts.faults = plan;

  // The root of an exchange sends nothing but replies, so every checksum
  // reject it counts is a corrupted gather-list reply, caught and resent.
  const CscMat block = testing::random_matrix(40, 30, 2.5, 921);
  const std::vector<ColRange> ranges = {{0, 4}, {11, 13}, {22, 30}};
  const int p = 4, rounds = 20;
  const vmpi::RunResult exchanged = vmpi::run(
      p,
      [&](vmpi::Comm& world) {
        const bool root = world.rank() == 0;
        const Payload packed = root ? pack_csc_payload(block) : Payload{};
        for (int round = 0; round < rounds; ++round) {
          vmpi::PendingSparse pending = world.isparse_exchange(
              0, root ? Payload{} : pack_need_request(ranges));
          const std::vector<Payload> parts = world.sparse_wait(
              pending, [&packed](int /*src*/, Payload request) {
                return make_sparse_reply(packed, request);
              });
          if (!root) {
            const CscView got =
                assemble_sparse_block(parts, block.nrows(), block.ncols());
            ASSERT_TRUE(holds_exactly(got, block, ranges)) << "round " << round;
          }
        }
      },
      opts);
  ASSERT_FALSE(exchanged.failure.has_value())
      << exchanged.failure->kind << ": " << exchanged.failure->what;
  const auto& root_counters = exchanged.recorders.at(0).counters();
  ASSERT_EQ(root_counters.count("vmpi.checksum_rejects"), 1u);
  EXPECT_GE(root_counters.at("vmpi.checksum_rejects"), 1);
  // Each rejected attempt is resent, and each resend is one more message of
  // the whole reply: messages = replies + rejects.
  std::uint64_t sent = 0;
  for (const auto& [phase, t] : exchanged.recorders.at(0).traffic().per_phase())
    sent += t.messages;
  EXPECT_EQ(sent,
            static_cast<std::uint64_t>(rounds * (p - 1) +
                                       root_counters.at("vmpi.checksum_rejects")));

  // Through SUMMA: the same C, bit for bit, as the clean run.
  const int grid_p = 16, l = 1;
  const CscMat a = skewed_rmat(6, 922);
  CscMat clean;
  run_summa(a, a, grid_p, l, /*sparse_comm=*/true, &clean);
  plan.corrupt_prob = 0.1;
  opts.faults = plan;
  CscMat faulty;
  const vmpi::RunResult result = vmpi::run(
      grid_p,
      [&](vmpi::Comm& world) {
        Grid3D grid(world, l);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, a);
        SummaOptions sopts;
        sopts.sparse_comm = true;
        DistMat3D dc;
        dc.global_rows = a.nrows();
        dc.global_cols = a.ncols();
        dc.rows = a_style_row_range(grid, a.nrows());
        dc.cols = a_style_col_range(grid, a.ncols());
        dc.local = summa3d<PlusTimes>(grid, da.local, db.local, sopts);
        CscMat gathered = gather_dist(grid, dc);
        if (world.rank() == 0) faulty = std::move(gathered);
      },
      opts);
  ASSERT_FALSE(result.failure.has_value())
      << result.failure->kind << ": " << result.failure->what;
  testing::expect_mat_near(faulty, clean, 0.0);
  std::int64_t rejects = 0;
  for (const obs::Recorder& rec : result.recorders) {
    const auto it = rec.counters().find("vmpi.checksum_rejects");
    if (it != rec.counters().end()) rejects += it->second;
  }
  EXPECT_GE(rejects, 1);
  for (const auto& [phase, t] : result.traffic_summary().total_per_phase)
    EXPECT_LE(t.shipped, t.bytes) << "phase " << phase;
}

}  // namespace
}  // namespace casp
