// Microbenchmarks (google-benchmark) for the local kernels of Sec. IV-D:
// every SpGEMM accumulator and both merge algorithms across compression
// regimes, plus the serialization path. These are the numbers the cost
// model's per-process rates come from, and the direct evidence for the
// paper's claims that unsorted-hash beats hybrid by 30-50% and hash merge
// beats heap merge by an order of magnitude.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "gen/er.hpp"
#include "gen/protein.hpp"
#include "gen/rmat.hpp"
#include "kernels/merge.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/symbolic.hpp"
#include "sparse/serialize.hpp"
#include "sparse/stats.hpp"

namespace casp {
namespace {

CscMat bench_matrix(int which) {
  switch (which) {
    case 0:  // low compression: ER, cf ~ 1-2
      return generate_er_square(4096, 4.0, 11);
    case 1: {  // high compression: protein families, cf >> 1
      ProteinParams p;
      p.n = 3000;
      p.min_family = 8;
      p.max_family = 128;
      p.within_density = 0.3;
      p.seed = 12;
      return generate_protein_similarity(p).mat;
    }
    default: {  // skewed: R-MAT
      RmatParams p;
      p.scale = 12;
      p.edge_factor = 6.0;
      p.seed = 13;
      return generate_rmat(p);
    }
  }
}

const char* matrix_name(int which) {
  switch (which) {
    case 0: return "ER(cf~2)";
    case 1: return "protein(cf-high)";
    default: return "rmat(skewed)";
  }
}

/// One local multiply per iteration; `hinted` passes the exact per-column
/// counts of symbolic_column_nnz, as BatchedSUMMA3D does after Symbolic3D
/// (computed once, outside the timed loop).
void run_local_spgemm(benchmark::State& state, bool hinted) {
  const CscMat a = bench_matrix(static_cast<int>(state.range(1)));
  const auto kind = static_cast<SpGemmKind>(state.range(0));
  Index flops = multiply_flops(a, a);
  const std::vector<Index> hints =
      hinted ? symbolic_column_nnz(a, a) : std::vector<Index>{};
  for (auto _ : state) {
    CscMat c = local_spgemm<PlusTimes>(a, a, kind, /*threads=*/1, hints);
    benchmark::DoNotOptimize(c.nnz());
  }
  state.SetItemsProcessed(state.iterations() * flops);
  state.SetLabel(std::string(to_string(kind)) + (hinted ? "+hints" : "") +
                 " on " + matrix_name(static_cast<int>(state.range(1))));
}

void BM_LocalSpGemm(benchmark::State& state) { run_local_spgemm(state, false); }
BENCHMARK(BM_LocalSpGemm)
    ->ArgsProduct({{static_cast<long>(SpGemmKind::kUnsortedHash),
                    static_cast<long>(SpGemmKind::kSortedHash),
                    static_cast<long>(SpGemmKind::kHeap),
                    static_cast<long>(SpGemmKind::kHybrid),
                    static_cast<long>(SpGemmKind::kSpa)},
                   {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

// The symbolic-sized path: the hash kernels size their output from the
// hints and hand the buffers over uncopied.
void BM_LocalSpGemmHinted(benchmark::State& state) {
  run_local_spgemm(state, true);
}
BENCHMARK(BM_LocalSpGemmHinted)
    ->ArgsProduct({{static_cast<long>(SpGemmKind::kUnsortedHash),
                    static_cast<long>(SpGemmKind::kSortedHash)},
                   {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

void BM_Merge(benchmark::State& state) {
  const auto kind = static_cast<MergeKind>(state.range(0));
  const int ways = static_cast<int>(state.range(1));
  // Pieces shaped like per-stage SUMMA partials: same output block, random
  // overlapping nonzeros.
  std::vector<CscMat> pieces;
  Index volume = 0;
  for (int s = 0; s < ways; ++s) {
    pieces.push_back(
        generate_er_square(2048, 24.0, 100 + static_cast<std::uint64_t>(s)));
    volume += pieces.back().nnz();
  }
  // The heap merge requires sorted inputs (generator output is sorted);
  // the hash merge accepts either.
  for (auto _ : state) {
    CscMat merged = merge_matrices<PlusTimes>(csc_refs(pieces), kind);
    benchmark::DoNotOptimize(merged.nnz());
  }
  state.SetItemsProcessed(state.iterations() * volume);
  state.SetLabel(std::string(to_string(kind)) + " " + std::to_string(ways) +
                 "-way");
}
BENCHMARK(BM_Merge)
    ->ArgsProduct({{static_cast<long>(MergeKind::kUnsortedHash),
                    static_cast<long>(MergeKind::kSortedHeap)},
                   {2, 4, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_MergeFiberSorted(benchmark::State& state) {
  // Merge-Fiber as summa3d runs it: the hash merge of `ways` unsorted
  // layer pieces emitting the final sorted order (1-way is the l = 1 case,
  // where the merge is just the final sort).
  const int ways = static_cast<int>(state.range(0));
  std::vector<CscMat> pieces;
  Index volume = 0;
  for (int s = 0; s < ways; ++s) {
    const CscMat a =
        generate_er_square(2048, 5.0, 200 + static_cast<std::uint64_t>(s));
    pieces.push_back(local_spgemm<PlusTimes>(a, a, SpGemmKind::kUnsortedHash));
    volume += pieces.back().nnz();
  }
  for (auto _ : state) {
    CscMat merged = merge_matrices<PlusTimes>(
        csc_refs(pieces), MergeKind::kUnsortedHash, /*threads=*/1,
        /*sort_output=*/true);
    benchmark::DoNotOptimize(merged.nnz());
  }
  state.SetItemsProcessed(state.iterations() * volume);
  state.SetLabel(std::to_string(ways) + "-way");
}
BENCHMARK(BM_MergeFiberSorted)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FinalColumnSort(benchmark::State& state) {
  // The single post-Merge-Fiber sort the paper's pipeline performs once.
  const CscMat a = generate_er_square(4096, 4.0, 14);
  const CscMat unsorted =
      local_spgemm<PlusTimes>(a, a, SpGemmKind::kUnsortedHash);
  for (auto _ : state) {
    CscMat copy = unsorted;
    copy.sort_columns();
    benchmark::DoNotOptimize(copy.columns_sorted());
  }
  state.SetItemsProcessed(state.iterations() * unsorted.nnz());
}
BENCHMARK(BM_FinalColumnSort)->Unit(benchmark::kMillisecond);

void BM_SymbolicVsNumeric(benchmark::State& state) {
  // LocalSymbolic must be much cheaper than Local-Multiply for the
  // symbolic step to be worth its communication (Sec. IV-A). R-MAT's
  // clustered columns put consecutive rows of one A column in one word
  // of a row bitmap, the case a word-shared accumulator serializes on.
  const CscMat a = bench_matrix(static_cast<int>(state.range(1)));
  const bool symbolic = state.range(0) == 1;
  for (auto _ : state) {
    if (symbolic) {
      benchmark::DoNotOptimize(symbolic_nnz(a, a));
    } else {
      CscMat c = local_spgemm<PlusTimes>(a, a, SpGemmKind::kUnsortedHash);
      benchmark::DoNotOptimize(c.nnz());
    }
  }
  state.SetLabel(std::string(symbolic ? "symbolic (count only)" : "numeric multiply") +
                 " on " + matrix_name(static_cast<int>(state.range(1))));
}
BENCHMARK(BM_SymbolicVsNumeric)
    ->ArgsProduct({{0, 1}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

void BM_PackUnpackCsc(benchmark::State& state) {
  // Serialization sits on every broadcast; it must be memcpy-bound.
  const CscMat a = generate_er_square(8192, 8.0, 15);
  for (auto _ : state) {
    auto buf = pack_csc(a);
    CscMat back = unpack_csc(buf);
    benchmark::DoNotOptimize(back.nnz());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(packed_size(a)));
}
BENCHMARK(BM_PackUnpackCsc)->Unit(benchmark::kMillisecond);

void BM_HypersparseMultiply(benchmark::State& state) {
  // The Sec. V-D regime: with many layers both local operands are
  // hypersparse (nnz << ncols). The CSC pipeline pays O(ncols) per
  // multiply for colptr/output scaffolding. Arg(0) keeps the op name the
  // snapshot has always carried for this arm.
  const Index dim = 1 << 18;  // 262,144-wide blocks, a few hundred nonzeros
  auto make_hypersparse = [&](std::uint64_t seed) {
    Rng local(seed);
    TripleMat t(dim, dim);
    for (int k = 0; k < 160; ++k) {
      const Index j = local.range(0, dim);
      for (int e = 0; e < 4; ++e) t.push_back(local.range(0, dim), j, 1.0);
    }
    return CscMat::from_triples(std::move(t));
  };
  const CscMat a = make_hypersparse(22);
  // B's rows must hit A's nonempty columns occasionally: reuse A.
  const CscMat b = a;
  for (auto _ : state) {
    CscMat c = local_spgemm<PlusTimes>(a, b, SpGemmKind::kUnsortedHash);
    benchmark::DoNotOptimize(c.nnz());
  }
  state.SetLabel("CSC (O(ncols) scaffolding per multiply)");
}
BENCHMARK(BM_HypersparseMultiply)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_Transpose(benchmark::State& state) {
  const CscMat a = generate_er_square(8192, 8.0, 16);
  for (auto _ : state) {
    CscMat t = a.transpose();
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Transpose)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace casp

namespace {

/// Normal console output, plus one {op, bytes, ns, copies} record per run
/// into BENCH_kernels.json so future changes can diff kernel perf
/// mechanically. `copies` is the global Payload deep-copy delta observed
/// across the run's report group, per iteration (only the serialization
/// benches move it today).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    double group_iters = 0;
    for (const Run& run : reports)
      if (run.run_type == Run::RT_Iteration && !run.error_occurred)
        group_iters += static_cast<double>(run.iterations);
    const std::uint64_t copies_now = casp::Payload::deep_copies();
    const double copies_per_iter =
        group_iters > 0
            ? static_cast<double>(copies_now - last_copies_) / group_iters
            : 0.0;
    last_copies_ = copies_now;
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const double sec_per_op = run.real_accumulated_time / iters;
      double bytes = 0;
      const auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) bytes = it->second.value * sec_per_op;
      std::string op = run.benchmark_name();
      if (!run.report_label.empty()) op += " [" + run.report_label + "]";
      records_.add(op, bytes, sec_per_op * 1e9, copies_per_iter);
    }
  }

  const casp::bench::JsonRecords& records() const { return records_; }

 private:
  casp::bench::JsonRecords records_;
  std::uint64_t last_copies_ = casp::Payload::deep_copies();
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.records().write("BENCH_kernels.json");
  benchmark::Shutdown();
  return 0;
}
