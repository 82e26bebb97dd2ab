// BatchedSUMMA3D (Algorithm 4): correctness across (p, l, b), callback
// streaming, block-cyclic column mapping, and memory-budget behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>

#include "ckpt/checkpoint.hpp"
#include "ckpt/redistribute.hpp"
#include "common/block_pool.hpp"
#include "common/payload.hpp"
#include "gen/rmat.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "obs/report.hpp"
#include "sparse/serialize.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

struct BatchedCase {
  int p;
  int l;
  Index batches;
  Index n;
  double density;
};

class BatchedCorrectness : public ::testing::TestWithParam<BatchedCase> {};

TEST_P(BatchedCorrectness, ConcatenatedOutputMatchesReference) {
  const auto [p, l, batches, n, density] = GetParam();
  const CscMat a = testing::random_matrix(n, n, density, 31);
  const CscMat b = testing::random_matrix(n, n, density, 32);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);

  vmpi::run(p, [&, l = l, batches = batches](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    SummaOptions opts;
    opts.force_batches = batches;
    BatchedResult result =
        batched_summa3d<PlusTimes>(grid, da, db, /*total_memory=*/0, opts);
    EXPECT_EQ(result.batches, std::min(batches, std::max<Index>(1, n)));
    // Output must be A-style distributed.
    EXPECT_EQ(result.c.rows.start, a_style_row_range(grid, n).start);
    EXPECT_EQ(result.c.cols.start, a_style_col_range(grid, n).start);
    EXPECT_EQ(result.c.cols.count, a_style_col_range(grid, n).count);
    testing::expect_mat_near(gather_dist(grid, result.c), expected, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BatchedCorrectness,
    ::testing::Values(BatchedCase{1, 1, 3, 17, 3.0},
                      BatchedCase{4, 1, 2, 20, 3.0},
                      BatchedCase{4, 4, 3, 22, 3.0},
                      BatchedCase{8, 2, 4, 26, 3.0},
                      BatchedCase{16, 4, 5, 31, 3.0},
                      BatchedCase{9, 1, 7, 23, 3.0},
                      BatchedCase{16, 16, 2, 21, 2.0},
                      // b larger than per-part columns: empty batches
                      BatchedCase{8, 2, 16, 9, 2.0},
                      BatchedCase{12, 3, 6, 29, 3.5}));

TEST(BatchedSingleStage, OneByOneLayersMatchReferenceAndRecordMergeLayer) {
  // 1x1x4: every layer is one process (q = 1), so Merge-Layer moves the
  // lone stage partial and Local-Multiply sizes its output from exact
  // symbolic hints. The product must still be right and every report
  // must still list the Merge-Layer step.
  const Index n = 40;
  const CscMat a = testing::random_matrix(n, n, 4.0, 33);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  const vmpi::RunResult run = vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 4);
    ASSERT_EQ(grid.q(), 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    BatchedResult result =
        batched_summa3d<PlusTimes>(grid, da, db, /*total_memory=*/0);
    EXPECT_EQ(result.batches, 1);
    testing::expect_mat_near(gather_dist(grid, result.c), expected, 1e-9);
  });
  const std::vector<std::string> names = run.time_names();
  EXPECT_NE(std::find(names.begin(), names.end(), steps::kMergeLayer),
            names.end());
}

TEST(BatchedCallback, StreamedPiecesTileTheOutputExactly) {
  const int p = 8, l = 2;
  const Index n = 24, batches = 3;
  const CscMat a = testing::random_matrix(n, n, 3.0, 33);
  const CscMat b = testing::random_matrix(n, n, 3.0, 34);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);

  std::mutex mutex;
  TripleMat assembled(n, n);
  std::map<Index, int> batch_calls;  // batch index -> callback count

  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    SummaOptions opts;
    opts.force_batches = batches;
    batched_summa3d<PlusTimes>(
        grid, da, db, 0, opts,
        [&](CscMat&& piece, const BatchInfo& info) {
          EXPECT_EQ(info.num_batches, batches);
          EXPECT_EQ(piece.ncols(), info.global_cols.count);
          EXPECT_EQ(piece.nrows(), info.global_rows.count);
          EXPECT_TRUE(piece.columns_sorted());
          std::lock_guard<std::mutex> lock(mutex);
          ++batch_calls[info.batch_index];
          for (Index j = 0; j < piece.ncols(); ++j) {
            const auto rows = piece.col_rowids(j);
            const auto vals = piece.col_vals(j);
            for (std::size_t k = 0; k < rows.size(); ++k)
              assembled.push_back(rows[k] + info.global_rows.start,
                                  j + info.global_cols.start, vals[k]);
          }
        },
        /*keep_output=*/false);
  });

  // Every batch invoked on every rank.
  ASSERT_EQ(batch_calls.size(), static_cast<std::size_t>(batches));
  for (const auto& [bi, count] : batch_calls) EXPECT_EQ(count, p);

  // Streamed pieces are disjoint (no duplicate coordinates) and assemble to
  // the full product.
  ASSERT_TRUE(assembled.nnz() == expected.nnz());
  CscMat full = CscMat::from_triples(std::move(assembled));
  EXPECT_EQ(full.nnz(), expected.nnz()) << "pieces overlapped";
  testing::expect_mat_near(full, expected, 1e-9);
}

TEST(BatchedCheckpoint, KeptOutputIsTheSameWithCheckpointsAndOnResume) {
  // With checkpoints on, the kept output is built from the checkpointed
  // pieces. It must equal the output kept without checkpoints, bit for
  // bit, and a relaunch that replays every saved piece must return it too.
  const int p = 8, l = 2;
  const Index batches = 3;
  const CscMat a = testing::random_matrix(26, 26, 3.0, 35);
  const std::string dir = ::testing::TempDir() + "/casp_batched_kept_ckpt";
  std::filesystem::remove_all(dir);
  const auto run = [&](bool ckpt_on, std::vector<CscMat>& local,
                       std::vector<std::int64_t>& resumes) {
    local.assign(static_cast<std::size_t>(p), CscMat());
    resumes.assign(static_cast<std::size_t>(p), 0);
    vmpi::run(p, [&](vmpi::Comm& world) {
      ckpt::Checkpointer ck(dir, world.rank(), /*every=*/1, &world.recorder());
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      SummaOptions opts;
      opts.force_batches = batches;
      if (ckpt_on) opts.ckpt = &ck;
      BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0, opts, {},
                                                   /*keep_output=*/true);
      const auto rank = static_cast<std::size_t>(world.rank());
      local[rank] = std::move(r.c.local);
      const auto it = world.recorder().counters().find("ckpt.resumes");
      if (it != world.recorder().counters().end()) resumes[rank] = it->second;
    });
  };
  std::vector<CscMat> plain, saved, resumed;
  std::vector<std::int64_t> plain_resumes, saved_resumes, resumed_resumes;
  run(false, plain, plain_resumes);
  run(true, saved, saved_resumes);
  run(true, resumed, resumed_resumes);
  for (int r = 0; r < p; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_GT(plain[rank].ncols(), 0);
    testing::expect_same_arrays(saved[rank], plain[rank]);
    testing::expect_same_arrays(resumed[rank], plain[rank]);
    EXPECT_EQ(saved_resumes[rank], 0);
    EXPECT_EQ(resumed_resumes[rank], 1);
  }
  std::filesystem::remove_all(dir);
}

// Batch checkpoints as delta generations at 2x2x1, b = 5: each save holds
// only the pieces emitted since the last, every generation resumes
// bit-identically, and a damaged generation falls back to the longest
// prefix that still verifies.
class BatchedCheckpointChain : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr int kRanks = 4;
  static constexpr Index kBatches = 5;
  static constexpr Index kN = 160;

  struct Run {
    std::vector<CscMat> local;                  // each rank's kept C
    std::vector<Bytes> piece_bytes;             // packed bytes of its pieces
    std::vector<std::int64_t> bytes_saved;      // its ckpt.bytes counter
    std::vector<std::int64_t> resumed_gen;      // -1 when it did not resume
  };

  static const CscMat& a() {
    static const CscMat m = testing::random_matrix(kN, kN, 6.0, 281);
    return m;
  }
  static std::string job() {
    return summa_ckpt_job_id(kN, kN, kN, a().nnz(), a().nnz(), "");
  }

  /// One run; checkpoints to `dir` unless it is empty.
  Run run(const std::string& dir) const {
    Run out;
    out.local.resize(kRanks);
    out.piece_bytes.assign(kRanks, 0);
    out.bytes_saved.assign(kRanks, 0);
    out.resumed_gen.assign(kRanks, -1);
    vmpi::run(kRanks, [&](vmpi::Comm& world) {
      const auto rank = static_cast<std::size_t>(world.rank());
      ckpt::Checkpointer ck;
      if (!dir.empty())
        ck = ckpt::Checkpointer(dir, world.rank(), GetParam(),
                                &world.recorder());
      Grid3D grid(world, 1);
      SummaOptions opts;
      opts.force_batches = kBatches;
      opts.ckpt = &ck;
      BatchedResult r = batched_summa3d<PlusTimes>(
          grid, distribute_a_style(grid, a()), distribute_b_style(grid, a()),
          0, opts,
          [&](CscMat&& piece, const BatchInfo&) {
            out.piece_bytes[rank] += packed_size(piece);
          },
          /*keep_output=*/true);
      out.local[rank] = std::move(r.c.local);
      const auto& counters = world.recorder().counters();
      if (const auto it = counters.find("ckpt.bytes"); it != counters.end())
        out.bytes_saved[rank] = it->second;
      if (const auto it = counters.find("ckpt.resumed_generation");
          it != counters.end())
        out.resumed_gen[rank] = it->second;
    });
    return out;
  }

  /// Rank `rank`'s generation files of this job in `dir`, by generation.
  static std::map<std::int64_t, std::filesystem::path> generations(
      const std::string& dir, int rank) {
    const std::string prefix = ckpt::job_file_stem(ckpt::kSummaCkptScope,
                                                   job()) +
                               "-r" + std::to_string(rank) + "-g";
    std::map<std::int64_t, std::filesystem::path> gens;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      const std::string name = e.path().filename().string();
      if (name.rfind(prefix, 0) == 0)
        gens[std::stoll(name.substr(prefix.size()))] = e.path();
    }
    return gens;
  }

  /// A per-test scratch directory under `name`, emptied first.
  static std::string scratch(const std::string& name) {
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string dir = ::testing::TempDir() + "/casp_chain_" + name + "_" +
                      test->name();
    std::replace(dir.begin() + static_cast<std::ptrdiff_t>(
                                   ::testing::TempDir().size()),
                 dir.end(), '/', '_');
    std::filesystem::remove_all(dir);
    return dir;
  }

  static std::string copy_of(const std::string& from, const std::string& name) {
    const std::string to = scratch(name);
    std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
    return to;
  }

  static void expect_same_output(const Run& got, const Run& want) {
    for (int r = 0; r < kRanks; ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      testing::expect_same_arrays(got.local[static_cast<std::size_t>(r)],
                                  want.local[static_cast<std::size_t>(r)]);
    }
  }

};

TEST_P(BatchedCheckpointChain, EachPieceIsWrittenOnce) {
  const std::string dir = scratch("saved");
  const Run saved = run(dir);
  expect_same_output(saved, run(""));
  // A generation's own overhead: magic, count, checksum, the job stamp,
  // the parent link, the counters and at most kBatches piece records.
  constexpr Bytes kHeaderBound = 1024;
  for (int r = 0; r < kRanks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto rank = static_cast<std::size_t>(r);
    const auto gens = generations(dir, r);
    EXPECT_EQ(static_cast<Index>(gens.size()),
              kBatches / static_cast<Index>(GetParam()));
    Bytes on_disk = 0;
    for (const auto& [gen, path] : gens)
      on_disk += std::filesystem::file_size(path);
    const Bytes bound = saved.piece_bytes[rank] + kBatches * kHeaderBound;
    EXPECT_GT(saved.piece_bytes[rank], kBatches * kHeaderBound)
        << "pieces too small for the bound to tell";
    EXPECT_LE(on_disk, bound);
    EXPECT_EQ(static_cast<Bytes>(saved.bytes_saved[rank]), on_disk);
  }
  std::filesystem::remove_all(dir);
}

TEST_P(BatchedCheckpointChain, ResumingFromEachGenerationIsBitIdentical) {
  const std::string dir = scratch("saved");
  const Run clean = run(dir);
  const std::int64_t newest = generations(dir, 0).rbegin()->first;
  for (std::int64_t k = 1; k <= newest; ++k) {
    SCOPED_TRACE("resume from generation " + std::to_string(k));
    const std::string trial = copy_of(dir, "resume");
    for (int r = 0; r < kRanks; ++r)
      for (const auto& [gen, path] : generations(trial, r))
        if (gen > k) std::filesystem::remove(path);
    const Run resumed = run(trial);
    expect_same_output(resumed, clean);
    for (int r = 0; r < kRanks; ++r)
      EXPECT_EQ(resumed.resumed_gen[static_cast<std::size_t>(r)], k);
    std::filesystem::remove_all(trial);
  }
  std::filesystem::remove_all(dir);
}

TEST_P(BatchedCheckpointChain,
       CorruptMiddleGenerationFallsBackToTheValidPrefix) {
  const std::string dir = scratch("saved");
  const Run clean = run(dir);
  const std::int64_t newest = generations(dir, 0).rbegin()->first;
  ASSERT_GE(newest, 2);
  const std::int64_t middle = newest == 2 ? 1 : newest / 2 + 1;
  const std::string trial = copy_of(dir, "corrupt");
  // Rank 1's middle generation takes a flipped byte: it and every
  // generation built on it fail, so rank 1 resumes from the one before
  // (or recomputes) and the others truncate to its prefix.
  const std::filesystem::path bad = generations(trial, 1).at(middle);
  {
    std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(bad) / 2));
    f.put('\x5a');
  }
  const Run resumed = run(trial);
  expect_same_output(resumed, clean);
  EXPECT_EQ(resumed.resumed_gen[1], middle > 1 ? middle - 1 : -1);
  for (int r : {0, 2, 3})
    EXPECT_EQ(resumed.resumed_gen[static_cast<std::size_t>(r)],
              middle > 1 ? newest : -1);
  std::filesystem::remove_all(trial);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Cadence, BatchedCheckpointChain,
                         ::testing::Values<std::uint64_t>(1, 2),
                         [](const ::testing::TestParamInfo<std::uint64_t>& c) {
                           return "every" + std::to_string(c.param);
                         });

TEST(BatchedSymbolic, TightMemoryForcesMultipleBatches) {
  const int p = 8, l = 2;
  const Index n = 32;
  const CscMat a = testing::random_matrix(n, n, 6.0, 35);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);

  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);

    // First find the unconstrained memory need, then offer a fraction.
    SymbolicResult unlimited = symbolic3d(grid, da.local, db.local, 0);
    const Bytes inputs_per_rank =
        static_cast<Bytes>(unlimited.max_nnz_a + unlimited.max_nnz_b) *
        kBytesPerNonzero;
    const Bytes output_per_rank =
        static_cast<Bytes>(unlimited.max_nnz_c) * kBytesPerNonzero;
    // Budget: inputs + a third of the unmerged output per rank -> needs >= 3
    // batches.
    const Bytes budget =
        static_cast<Bytes>(world.size()) * (inputs_per_rank + output_per_rank / 3);

    BatchedResult result = batched_summa3d<PlusTimes>(grid, da, db, budget);
    EXPECT_GE(result.batches, 3);
    testing::expect_mat_near(gather_dist(grid, result.c), expected, 1e-9);
  });
}

TEST(BatchedSymbolic, ImpossibleBudgetThrowsMemoryError) {
  const int p = 4;
  const Index n = 24;
  const CscMat a = testing::random_matrix(n, n, 4.0, 36);
  EXPECT_THROW(vmpi::run(p,
                         [&](vmpi::Comm& world) {
                           Grid3D grid(world, 1);
                           const DistMat3D da = distribute_a_style(grid, a);
                           const DistMat3D db = distribute_b_style(grid, a);
                           // 10 bytes per rank: inputs alone cannot fit.
                           batched_summa3d<PlusTimes>(grid, da, db,
                                                      /*total_memory=*/40);
                         }),
               MemoryError);
}

TEST(BatchedRectangular, AatViaExplicitTranspose) {
  // The BELLA/PASTIS pattern: tall-thin A times its transpose.
  const Index m = 18, k = 40;
  const CscMat a = testing::random_matrix(m, k, 2.0, 37);
  const CscMat at = a.transpose();
  const CscMat expected = reference_multiply<PlusTimes>(a, at);
  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, at);
    SummaOptions opts;
    opts.force_batches = 3;
    BatchedResult result = batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    testing::expect_mat_near(gather_dist(grid, result.c), expected, 1e-9);
  });
}

// Adaptive re-batching (the graceful-degradation protocol): when the
// enforced budget is below what Eq. 2's estimate assumed, the run must
// split batches at the overrun consensus and still produce output
// bit-identical to an unconstrained run (part_low nesting).
TEST(AdaptiveRebatch, SplitsAndMatchesUnconstrainedBitExact) {
  const int p = 8, l = 2;
  const Index n = 32, batches = 2;
  const CscMat a = testing::random_matrix(n, n, 5.0, 39);
  const CscMat b = testing::random_matrix(n, n, 5.0, 40);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);

  // Pass 1 (unconstrained): record each rank's actual peak and the exact
  // streamed output at the forced granularity.
  std::vector<Bytes> peak(static_cast<std::size_t>(p), 0);
  std::vector<Bytes> inputs(static_cast<std::size_t>(p), 0);
  std::mutex mutex;
  TripleMat base_triples(n, n);
  auto assemble = [&](TripleMat& into) {
    return [&](CscMat&& piece, const BatchInfo& info) {
      std::lock_guard<std::mutex> lock(mutex);
      for (Index j = 0; j < piece.ncols(); ++j) {
        const auto rows = piece.col_rowids(j);
        const auto vals = piece.col_vals(j);
        for (std::size_t k = 0; k < rows.size(); ++k)
          into.push_back(rows[k] + info.global_rows.start,
                         j + info.global_cols.start, vals[k]);
      }
    };
  };
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    MemoryTracker tracker(0);  // unlimited: just measure
    SummaOptions opts;
    opts.force_batches = batches;
    opts.memory = &tracker;
    BatchedResult r =
        batched_summa3d<PlusTimes>(grid, da, db, 0, opts,
                                   assemble(base_triples),
                                   /*keep_output=*/false);
    EXPECT_EQ(r.rebatch_events, 0);
    EXPECT_EQ(r.final_batches, batches);
    const auto rank = static_cast<std::size_t>(world.rank());
    peak[rank] = tracker.peak();
    inputs[rank] =
        static_cast<Bytes>(da.local.nnz() + db.local.nnz()) * kBytesPerNonzero;
  });
  const CscMat base = CscMat::from_triples(std::move(base_triples));
  testing::expect_mat_near(base, expected, 1e-9);

  // Pass 2: give each rank a budget strictly between its steady-state
  // (inputs) and its unconstrained peak, so the forced granularity
  // overruns but a finer one fits. The run must recover by splitting.
  TripleMat adaptive_triples(n, n);
  Index rebatch_events = -1, final_batches = -1;
  auto result = vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    const auto rank = static_cast<std::size_t>(world.rank());
    MemoryTracker tracker(inputs[rank] +
                          (peak[rank] - inputs[rank]) * 3 / 5);
    SummaOptions opts;
    opts.force_batches = batches;
    opts.memory = &tracker;
    BatchedResult r =
        batched_summa3d<PlusTimes>(grid, da, db, 0, opts,
                                   assemble(adaptive_triples),
                                   /*keep_output=*/false);
    if (world.rank() == 0) {
      rebatch_events = r.rebatch_events;
      final_batches = r.final_batches;
    }
  });
  EXPECT_GE(rebatch_events, 1);
  EXPECT_GT(final_batches, batches);
  EXPECT_GE(result.recorders.at(0).counters().at("summa.rebatch_events"), 1);

  // Bit-identical to the unconstrained run: identical structure AND values
  // (tolerance 0) — the per-column summation order never changed.
  const CscMat adaptive = CscMat::from_triples(std::move(adaptive_triples));
  testing::expect_mat_near(adaptive, base, 0.0);
}

TEST(AdaptiveRebatch, ExhaustionIsClassifiedAsMemoryBudget) {
  // A budget that admits the inputs but nothing else: every granularity
  // down to one column per block overruns, so the protocol must give up
  // with a MemoryError — classified, never a hang.
  const int p = 4, l = 1;
  const Index n = 16;
  const CscMat a = testing::random_matrix(n, n, 4.0, 41);
  vmpi::RunOptions run_opts;
  run_opts.capture_failure = true;
  auto result = vmpi::run(
      p,
      [&](vmpi::Comm& world) {
        Grid3D grid(world, l);
        const DistMat3D da = distribute_a_style(grid, a);
        const DistMat3D db = distribute_b_style(grid, a);
        MemoryTracker tracker(
            static_cast<Bytes>(da.local.nnz() + db.local.nnz()) *
                kBytesPerNonzero +
            1);
        SummaOptions opts;
        opts.force_batches = 1;
        opts.memory = &tracker;
        batched_summa3d<PlusTimes>(grid, da, db, 0, opts, nullptr,
                                   /*keep_output=*/false);
      },
      run_opts);
  ASSERT_TRUE(result.failed());
  EXPECT_EQ(result.failure->kind, "memory_budget");
}

TEST(AdaptiveRebatch, OptOutThrowsOnFirstOverrun) {
  // adaptive_rebatch=false restores the old contract: the first over-budget
  // allocation throws MemoryError immediately.
  const int p = 4, l = 1;
  const Index n = 16;
  const CscMat a = testing::random_matrix(n, n, 4.0, 42);
  EXPECT_THROW(
      vmpi::run(p,
                [&](vmpi::Comm& world) {
                  Grid3D grid(world, l);
                  const DistMat3D da = distribute_a_style(grid, a);
                  const DistMat3D db = distribute_b_style(grid, a);
                  MemoryTracker tracker(
                      static_cast<Bytes>(da.local.nnz() + db.local.nnz()) *
                          kBytesPerNonzero +
                      1);
                  SummaOptions opts;
                  opts.force_batches = 1;
                  opts.memory = &tracker;
                  opts.adaptive_rebatch = false;
                  batched_summa3d<PlusTimes>(grid, da, db, 0, opts, nullptr,
                                             /*keep_output=*/false);
                }),
      MemoryError);
}

TEST(BatchedMemoryTracking, PeakStaysWithinBudgetWhenStreaming) {
  const int p = 8, l = 2;
  const Index n = 40;
  const CscMat a = testing::random_matrix(n, n, 5.0, 38);
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SymbolicResult unlimited = symbolic3d(grid, da.local, db.local, 0);
    const Bytes per_rank =
        static_cast<Bytes>(unlimited.max_nnz_a + unlimited.max_nnz_b) *
            kBytesPerNonzero +
        static_cast<Bytes>(unlimited.max_nnz_c) * kBytesPerNonzero / 2;
    const Bytes budget = static_cast<Bytes>(world.size()) * per_rank;

    // Enforce the budget with a tracker; streaming mode (keep_output=false)
    // must not exceed it.
    MemoryTracker tracker(per_rank + per_rank / 2);  // slack for batch copies
    SummaOptions opts;
    opts.memory = &tracker;
    batched_summa3d<PlusTimes>(
        grid, da, db, budget, opts, [](CscMat&&, const BatchInfo&) {},
        /*keep_output=*/false);
    EXPECT_LE(tracker.peak(), tracker.budget());
  });
}

// Equal-flops layer slices (rebalance_inner, run by batched_summa3d at
// l > 1). Partial sums regroup under the cut, so the product is compared
// with the oracle to 1e-9 rather than bitwise with the part_low split.
CscMat skewed_graph(int scale, std::uint64_t seed) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 8.0;
  p.seed = seed;
  return generate_rmat(p);
}

/// The report's value of counter `name` is its maximum over the ranks.
void expect_max_over_ranks(const vmpi::RunResult& run,
                           const std::map<std::string, std::int64_t>& merged,
                           const std::string& name) {
  std::int64_t max = 0;
  for (const obs::Recorder& rec : run.recorders)
    max = std::max(max, rec.counters().at(name));
  EXPECT_EQ(merged.at(name), max) << name;
}

/// Collects streamed pieces as global triples.
BatchCallback collect_into(TripleMat& into, std::mutex& mutex) {
  return [&into, &mutex](CscMat&& piece, const BatchInfo& info) {
    std::lock_guard<std::mutex> lock(mutex);
    for (Index j = 0; j < piece.ncols(); ++j) {
      const auto rows = piece.col_rowids(j);
      const auto vals = piece.col_vals(j);
      for (std::size_t k = 0; k < rows.size(); ++k)
        into.push_back(rows[k] + info.global_rows.start,
                       j + info.global_cols.start, vals[k]);
    }
  };
}

struct LayerCase {
  int p;
  int l;
};

class InnerBalance : public ::testing::TestWithParam<LayerCase> {};

/// Checks that the C column ranges the ranks report, keyed by (grid
/// column, layer), agree within each key and tile [0, n) in (grid column,
/// layer) order.
void expect_layers_tile_columns(
    const std::map<std::pair<int, int>, std::vector<LocalRange>>& cols,
    Index n) {
  Index next = 0;
  for (const auto& [key, ranges] : cols) {
    for (const LocalRange& r : ranges) {
      EXPECT_EQ(r.start, ranges.front().start);
      EXPECT_EQ(r.count, ranges.front().count);
    }
    EXPECT_EQ(ranges.front().start, next)
        << "grid column " << key.first << ", layer " << key.second;
    next = ranges.front().start + ranges.front().count;
  }
  EXPECT_EQ(next, n);
}

TEST_P(InnerBalance, SkewedRmatMatchesReferenceWithBalancedLayerFlops) {
  const auto [p, l] = GetParam();
  const CscMat a = skewed_graph(10, 5);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  Index total_flops = 0;
  std::mutex mutex;
  std::map<std::pair<int, int>, std::vector<LocalRange>> c_cols;
  const vmpi::RunResult run = vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0);
    {
      std::lock_guard<std::mutex> lock(mutex);
      c_cols[{grid.col(), grid.layer()}].push_back(r.c.cols);
    }
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-9);
    if (world.rank() == 0) total_flops = r.symbolic.total_flops;
  });
  // C's layer slices tile every grid column's part in layer order.
  expect_layers_tile_columns(c_cols, a.ncols());
  // The report's value is the heaviest layer over every grid row.
  const auto counters = obs::build_report(run).counters;
  expect_max_over_ranks(run, counters, "summa.layer_flops_max");
  expect_max_over_ranks(run, counters, "summa.layer_flops_max_in");
  const double mean = static_cast<double>(total_flops) / l;
  EXPECT_LE(static_cast<double>(counters.at("summa.layer_flops_max")),
            1.25 * mean);
  // The part_low split of this input is well off balance.
  EXPECT_GT(static_cast<double>(counters.at("summa.layer_flops_max_in")),
            1.5 * mean);
  EXPECT_GT(run.traffic_summary().total_per_phase.count(steps::kInnerBalance),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Grids, InnerBalance,
                         ::testing::Values(LayerCase{4, 4},    // 1x1x4
                                           LayerCase{8, 2}));  // 2x2x2

// The fiber split (DESIGN.md §5o): at l > 1 each B column part is cut by
// Symbolic3D's column counts, so every layer's Merge-Fiber gets an equal
// share of the unmerged output.
struct FiberCase {
  int p;
  int l;
  /// How far past the mean the part_low split puts the heaviest layer on
  /// this input. At l = 2 that layer carries at most 2x the mean, and the
  /// R-MAT's hub columns put 63 % of the fiber's input there (1.26x).
  double skew_in;
};

class FiberBalance : public ::testing::TestWithParam<FiberCase> {};

TEST_P(FiberBalance, SkewedRmatGivesEveryLayerAnEqualMergeFiberShare) {
  const auto [p, l, skew_in] = GetParam();
  const CscMat a = skewed_graph(10, 5);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  std::mutex mutex;
  // Per fiber (grid row, grid column): its Merge-Fiber input and its ranks.
  std::map<std::pair<int, int>, Index> fiber_nnz;
  std::map<std::pair<int, int>, std::vector<int>> fiber_ranks;
  std::map<std::pair<int, int>, std::vector<LocalRange>> c_cols;
  const vmpi::RunResult run = vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0);
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-9);
    std::lock_guard<std::mutex> lock(mutex);
    c_cols[{grid.col(), grid.layer()}].push_back(r.c.cols);
    const std::pair<int, int> fiber{grid.row(), grid.col()};
    fiber_ranks[fiber].push_back(world.rank());
    for (Index v : r.symbolic.col_nnz) fiber_nnz[fiber] += v;
  });
  expect_layers_tile_columns(c_cols, a.ncols());

  // Every fiber's heaviest layer is within 1.25x of its own mean.
  for (const auto& [fiber, ranks] : fiber_ranks) {
    const double mean = static_cast<double>(fiber_nnz.at(fiber)) / l;
    for (int rank : ranks)
      EXPECT_LE(static_cast<double>(run.recorders.at(static_cast<std::size_t>(rank))
                                        .counters()
                                        .at("summa.fiber_nnz_max")),
                1.25 * mean)
          << "fiber (" << fiber.first << ", " << fiber.second << ")";
  }
  // The report's value is the heaviest layer over every fiber.
  const auto counters = obs::build_report(run).counters;
  expect_max_over_ranks(run, counters, "summa.fiber_nnz_max");
  expect_max_over_ranks(run, counters, "summa.fiber_nnz_max_in");
  // The part_low split of this input is well off balance in rank 0's fiber.
  const double mean0 = static_cast<double>(fiber_nnz.at({0, 0})) / l;
  EXPECT_GT(static_cast<double>(
                run.recorders.at(0).counters().at("summa.fiber_nnz_max_in")),
            skew_in * mean0);
  EXPECT_GT(run.traffic_summary().total_per_phase.count(steps::kFiberBalance),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Grids, FiberBalance,
                         ::testing::Values(FiberCase{4, 4, 1.5},    // 1x1x4
                                           FiberCase{8, 2, 1.2}));  // 2x2x2

// The block pool (DESIGN.md §5p): a repeated job takes every large buffer
// — the wire images and Merge-Fiber's C arrays — back from the pool, with
// the same result and the same transport copies.
TEST(BlockPoolReuse, SecondJobTakesEveryPooledBlockFromThePool) {
  constexpr int p = 4, l = 4;
  const CscMat a = skewed_graph(12, 5);
  // Each run keeps its C pieces until every rank is done, so no rank's C
  // arrays can serve another rank's request within the run.
  const auto run_job = [&]() {
    std::vector<CscMat> pieces(p);
    vmpi::run(p, [&](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      batched_summa3d<PlusTimes>(
          grid, da, db, 0, {},
          [&](CscMat&& piece, const BatchInfo&) {
            pieces[static_cast<std::size_t>(world.rank())] = std::move(piece);
          },
          /*keep_output=*/false);
    });
    return pieces;
  };
  BlockPool& pool = BlockPool::global();
  pool.release_retained();
  const BlockPool::Stats s0 = pool.stats();
  const std::uint64_t copies0 = Payload::deep_copies();
  std::vector<CscMat> first = run_job();
  const BlockPool::Stats s1 = pool.stats();
  const std::uint64_t copies1 = Payload::deep_copies();
  // Copies of the first C (below the pool: their blocks are not its own);
  // dropping `first` returns its arrays.
  const std::vector<CscMat> first_c = first;
  first.clear();

  const std::vector<CscMat> second = run_job();
  const BlockPool::Stats s2 = pool.stats();
  const std::uint64_t copies2 = Payload::deep_copies();

  const std::uint64_t requests1 = (s1.hits + s1.misses) - (s0.hits + s0.misses);
  ASSERT_GT(s1.misses - s0.misses, 0u) << "no buffer reached the pool's floor";
  EXPECT_EQ(s2.misses - s1.misses, 0u);
  EXPECT_EQ(s2.hits - s1.hits, requests1);
  EXPECT_EQ(copies2 - copies1, copies1 - copies0);
  for (std::size_t r = 0; r < second.size(); ++r) {
    const CscMat& x = first_c[r];
    const CscMat& y = second[r];
    ASSERT_TRUE(x.colptr().size() == y.colptr().size() &&
                std::equal(x.colptr().begin(), x.colptr().end(),
                           y.colptr().begin()));
    ASSERT_TRUE(x.nnz() == y.nnz() &&
                std::equal(x.rowids().begin(), x.rowids().end(),
                           y.rowids().begin()));
    EXPECT_EQ(std::memcmp(x.vals().data(), y.vals().data(),
                          x.vals().size_bytes()),
              0)
        << "rank " << r;
  }
}

TEST(FiberBalance, AdaptiveRebatchOnTheCutIsBitIdentical) {
  // Symbolic3D runs (no force_batches), so the blocks follow the cut; a
  // tight budget then doubles the batch count, and the nested cut keeps
  // every column's partial sums where they were.
  const int p = 8, l = 2;
  const auto ranks = static_cast<std::size_t>(p);
  const CscMat a = skewed_graph(9, 6);
  std::mutex mutex;
  std::vector<Bytes> peak(ranks, 0);
  std::vector<Bytes> inputs(ranks, 0);
  // Each run's layer slice of C per rank: its pieces, joined.
  std::vector<LocalRange> base_slice(ranks), adaptive_slice(ranks);
  const auto joining = [](BatchCallback inner, LocalRange& slice) {
    return [inner, &slice](CscMat&& piece, const BatchInfo& info) {
      if (info.batch_index == 0) slice = {info.global_cols.start, 0};
      EXPECT_EQ(info.global_cols.start, slice.start + slice.count);
      slice.count += info.global_cols.count;
      inner(std::move(piece), info);
    };
  };
  TripleMat base_triples(a.nrows(), a.ncols());
  const vmpi::RunResult base_run = vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const auto [ra, rb] = rebalance_inner(grid, da, db);
    const auto rank = static_cast<std::size_t>(world.rank());
    MemoryTracker tracker(0);
    SummaOptions opts;
    opts.memory = &tracker;
    const BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, 0, opts,
        joining(collect_into(base_triples, mutex), base_slice[rank]),
        /*keep_output=*/false);
    EXPECT_EQ(r.batches, 1);
    EXPECT_EQ(r.rebatch_events, 0);
    peak[rank] = tracker.peak();
    inputs[rank] =
        static_cast<Bytes>(ra.local.nnz() + rb.local.nnz()) * kBytesPerNonzero;
  });
  const auto& counters = base_run.recorders.at(0).counters();
  ASSERT_LT(counters.at("summa.fiber_nnz_max"),
            counters.at("summa.fiber_nnz_max_in"))
      << "the cut must differ from part_low for this test to mean anything";
  const CscMat base = CscMat::from_triples(std::move(base_triples));
  testing::expect_mat_near(base, reference_multiply<PlusTimes>(a, a), 1e-9);

  TripleMat adaptive_triples(a.nrows(), a.ncols());
  Index rebatch_events = 0;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const auto rank = static_cast<std::size_t>(world.rank());
    MemoryTracker tracker(inputs[rank] + (peak[rank] - inputs[rank]) * 3 / 5);
    SummaOptions opts;
    opts.memory = &tracker;
    const BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, 0, opts,
        joining(collect_into(adaptive_triples, mutex), adaptive_slice[rank]),
        /*keep_output=*/false);
    if (world.rank() == 0) rebatch_events = r.rebatch_events;
  });
  EXPECT_GE(rebatch_events, 1);
  const CscMat adaptive = CscMat::from_triples(std::move(adaptive_triples));
  testing::expect_mat_near(adaptive, base, 0.0);
  // The finer blocks tile the same layer slices as the coarse ones.
  for (std::size_t r = 0; r < ranks; ++r) {
    EXPECT_EQ(adaptive_slice[r].start, base_slice[r].start) << "rank " << r;
    EXPECT_EQ(adaptive_slice[r].count, base_slice[r].count) << "rank " << r;
  }
}

class InnerBalanceDeep : public ::testing::TestWithParam<LayerCase> {};

TEST_P(InnerBalanceDeep, OneHeavyIndexLeavesEmptyLayerSlicesThatStillMultiply) {
  const auto [p, l] = GetParam();
  // An arrow: dense row 0 and column 0 plus the diagonal. Index 0 carries
  // n*n flops, more than 1/l of its part, so the layers between the one
  // holding it and the last get empty slices.
  const Index n = 24;
  TripleMat t(n, n);
  for (Index i = 0; i < n; ++i) {
    t.push_back(i, 0, 1.0 + static_cast<double>(i));
    if (i > 0) t.push_back(0, i, 0.5 * static_cast<double>(i));
    if (i > 0) t.push_back(i, i, 2.0);
  }
  const CscMat a = CscMat::from_triples(std::move(t));
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  std::mutex mutex;
  int empty_slices = 0;
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const auto [ra, rb] = rebalance_inner(grid, da, db);
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (ra.cols.count == 0) ++empty_slices;
    }
    const BatchedResult r = batched_summa3d<PlusTimes>(grid, da, db, 0);
    testing::expect_mat_near(gather_dist(grid, r.c), expected, 1e-9);
  });
  EXPECT_GT(empty_slices, 0);
}

INSTANTIATE_TEST_SUITE_P(Grids, InnerBalanceDeep,
                         ::testing::Values(LayerCase{4, 4},     // 1x1x4
                                           LayerCase{16, 4}));  // 2x2x4

TEST(InnerBalance, AdaptiveRebatchStaysBitIdenticalOnTheBalancedGrid) {
  const int p = 8, l = 2;
  const Index batches = 2;
  const CscMat a = skewed_graph(9, 6);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  std::mutex mutex;
  std::vector<Bytes> peak(static_cast<std::size_t>(p), 0);
  std::vector<Bytes> inputs(static_cast<std::size_t>(p), 0);
  TripleMat base_triples(a.nrows(), a.ncols());
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    // The inputs the run charges are the balanced ones.
    const auto [ra, rb] = rebalance_inner(grid, da, db);
    MemoryTracker tracker(0);
    SummaOptions opts;
    opts.force_batches = batches;
    opts.memory = &tracker;
    const BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, 0, opts, collect_into(base_triples, mutex),
        /*keep_output=*/false);
    EXPECT_EQ(r.rebatch_events, 0);
    const auto rank = static_cast<std::size_t>(world.rank());
    peak[rank] = tracker.peak();
    inputs[rank] =
        static_cast<Bytes>(ra.local.nnz() + rb.local.nnz()) * kBytesPerNonzero;
  });
  const CscMat base = CscMat::from_triples(std::move(base_triples));
  testing::expect_mat_near(base, expected, 1e-9);

  TripleMat adaptive_triples(a.nrows(), a.ncols());
  Index rebatch_events = 0;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const auto rank = static_cast<std::size_t>(world.rank());
    MemoryTracker tracker(inputs[rank] + (peak[rank] - inputs[rank]) * 3 / 5);
    SummaOptions opts;
    opts.force_batches = batches;
    opts.memory = &tracker;
    const BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, 0, opts, collect_into(adaptive_triples, mutex),
        /*keep_output=*/false);
    if (world.rank() == 0) rebatch_events = r.rebatch_events;
  });
  EXPECT_GE(rebatch_events, 1);
  const CscMat adaptive = CscMat::from_triples(std::move(adaptive_triples));
  testing::expect_mat_near(adaptive, base, 0.0);
}

}  // namespace
}  // namespace casp
