// Table VII: local computation improvements (previous heap/hybrid kernels
// vs this paper's unsorted-hash kernels) for Local-Multiply, Merge-Layer
// and Merge-Fiber, at l in {1, 4, 16}.
//
// MEASURED: the exact local workload of one process on the paper's
// 65,536-core grid (p = 4096 processes, q = sqrt(p/l) SUMMA stages) is
// reconstructed serially from the Isolates-small analog:
//   - Local-Multiply: the q per-stage partial products (inner dimension
//     sliced q*l ways, the layer's q slices multiplied one by one);
//   - Merge-Layer:    the q-way merge of those partials;
//   - Merge-Fiber:    the l-way merge of per-layer column pieces.
// Both kernel stacks run on identical inputs; fan-ins match the paper's
// grid, which is what makes the heap merges pay their lg(ways) factor.
//
// Paper findings to reproduce: merges improve by roughly an order of
// magnitude; the unsorted local multiply gains more at higher l (it may
// lose at l = 1 where the hybrid's heap branch shines); Merge-Fiber does
// not exist at l = 1.
//
// "now" is the shipped kernel: Merge-Fiber is the sorted hash merge that
// summa3d calls (the final sort folded into the merge's emit). The tables
// print which row-accumulator side (kernels/accumulator.hpp) each hash
// kernel's inputs select.
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"
#include "common/math.hpp"
#include "gen/er.hpp"
#include "kernels/accumulator.hpp"
#include "kernels/merge.hpp"
#include "kernels/spgemm.hpp"

using namespace casp;
using namespace casp::bench;

namespace {

struct StepTimes {
  double local_multiply = 0.0;
  double merge_layer = 0.0;
  double merge_fiber = 0.0;
  int multiplies = 0;        ///< stage multiplies run
  int dense_multiplies = 0;  ///< of which on the dense accumulator side
};

/// Reconstruct one process's pipeline: q stage-multiplies per layer ->
/// q-way Merge-Layer -> l-way Merge-Fiber over column pieces.
StepTimes run_pipeline(const CscMat& a, const CscMat& b, Index l, Index q,
                       SpGemmKind local_kind, MergeKind merge_kind) {
  StepTimes out;
  const Index inner = a.ncols();
  const CscMat bt = b.transpose();

  std::vector<CscMat> layer_results;  // D^(k) for each layer
  for (Index k = 0; k < l; ++k) {
    // Layer k's inner-dimension slice, further split into q stage slices.
    std::vector<CscMat> partials;
    for (Index s = 0; s < q; ++s) {
      const Index t = s * l + k;  // stage-major nesting as in the grid
      const Index lo = part_low(t, q * l, inner);
      const Index hi = part_low(t + 1, q * l, inner);
      const CscMat a_slice = a.slice_cols(lo, hi);
      const CscMat b_slice = bt.slice_cols(lo, hi).transpose();
      ++out.multiplies;
      if (use_dense_rows(a_slice.nrows(), multiply_flops(a_slice, b_slice)))
        ++out.dense_multiplies;
      Stopwatch watch;
      partials.push_back(local_spgemm<PlusTimes>(a_slice, b_slice, local_kind));
      out.local_multiply += watch.seconds();
    }
    Stopwatch watch;
    layer_results.push_back(
        merge_matrices<PlusTimes>(csc_refs(partials), merge_kind));
    out.merge_layer += watch.seconds();
  }

  if (l > 1) {
    // Merge-Fiber: each rank merges the l pieces covering its column
    // share; measure it on the first column share (1/l of the columns from
    // every layer result).
    std::vector<CscMat> pieces;
    for (const CscMat& d : layer_results)
      pieces.push_back(d.slice_cols(0, part_low(1, l, d.ncols())));
    Stopwatch watch;
    const CscMat merged = merge_matrices<PlusTimes>(
        csc_refs(pieces), merge_kind, /*threads=*/1, /*sort_output=*/true);
    out.merge_fiber = watch.seconds() * static_cast<double>(l);  // all shares
    if (merged.nnz() == 0) std::abort();  // keep the optimizer honest
  }
  return out;
}

constexpr Index kMergeRows = 2048;
constexpr double kMergeFill = 24.0;  // nonzeros per piece column

/// Merge time on pieces with paper-representative per-column fill.
///
/// Substitution note (DESIGN.md): dividing the 6000-row analog across 4096
/// processes leaves the per-stage partials with nearly-empty columns, so
/// merging them cannot exhibit the paper's regime. One process's D pieces
/// on Cori carry tens of nonzeros per column; these synthesized pieces
/// match that fill (and the paper's fan-in), which is what the lg(ways)
/// heap penalty actually depends on.
/// Merge-Fiber rows pass `sorted`: the merge emits the final sorted order.
double merge_time(Index ways, MergeKind kind, std::uint64_t seed,
                  bool sorted = false) {
  std::vector<CscMat> pieces;
  for (Index s = 0; s < ways; ++s)
    pieces.push_back(generate_er_square(kMergeRows, kMergeFill, seed + static_cast<std::uint64_t>(s)));
  Stopwatch watch;
  const CscMat merged = merge_matrices<PlusTimes>(csc_refs(pieces), kind,
                                                  /*threads=*/1, sorted);
  const double t = watch.seconds();
  if (merged.nnz() == 0) std::abort();  // keep the optimizer honest
  return t;
}

}  // namespace

int main() {
  print_header("Table VII: local kernel improvements, Isolates-small analog",
               "MEASURED (one process's workload at the 65,536-core grid "
               "shape: p=4096, q=sqrt(p/l))");

  Dataset data = isolates_small_s();
  const int repeats = 3;

  // -- Local-Multiply: the analog's per-layer stage multiplies -------------
  std::printf("--- Local-Multiply on the analog's stage slices ---\n");
  Table mult_table({"l", "q(stages)", "prev (hybrid)", "now (unsorted-hash)",
                    "speedup", "dense-side stages"});
  double l16_mult = 0.0;
  for (Index l : {Index{1}, Index{4}, Index{16}}) {
    const Index q = static_cast<Index>(std::sqrt(4096.0 / static_cast<double>(l)));
    double best[2] = {1e100, 1e100};
    StepTimes sides;
    int idx = 0;
    for (bool previous : {true, false}) {
      for (int rep = 0; rep < repeats; ++rep) {
        const StepTimes t = run_pipeline(
            data.a, data.b, l, q,
            previous ? SpGemmKind::kHybrid : SpGemmKind::kUnsortedHash,
            previous ? MergeKind::kSortedHeap : MergeKind::kUnsortedHash);
        best[idx] = std::min(best[idx], t.local_multiply);
        sides = t;
      }
      ++idx;
    }
    mult_table.add_row({fmt_int(l), fmt_int(q), fmt_time(best[0]),
                        fmt_time(best[1]), fmt(best[0] / best[1]),
                        fmt_int(sides.dense_multiplies) + "/" +
                            fmt_int(sides.multiplies)});
    if (l == 16) l16_mult = best[0] / best[1];
  }
  mult_table.print();

  // -- Merges at the paper's fan-ins and per-column fill --------------------
  std::printf("\n--- merges at the grid's fan-ins, paper-like column fill "
              "(synthesized pieces; see comment) ---\n");
  Table merge_table({"l", "step", "ways", "prev (sorted-heap)",
                     "now (unsorted-hash)", "speedup"});
  double l16_merge[2] = {0, 0};
  for (Index l : {Index{1}, Index{4}, Index{16}}) {
    const Index q = static_cast<Index>(std::sqrt(4096.0 / static_cast<double>(l)));
    double layer_prev = 1e100, layer_now = 1e100;
    for (int rep = 0; rep < repeats; ++rep) {
      layer_prev = std::min(layer_prev,
                            merge_time(q, MergeKind::kSortedHeap, 500));
      layer_now = std::min(layer_now,
                           merge_time(q, MergeKind::kUnsortedHash, 500));
    }
    merge_table.add_row({fmt_int(l), "Merge-Layer", fmt_int(q),
                         fmt_time(layer_prev), fmt_time(layer_now),
                         fmt(layer_prev / layer_now)});
    if (l > 1) {
      double fiber_prev = 1e100, fiber_now = 1e100;
      for (int rep = 0; rep < repeats; ++rep) {
        fiber_prev = std::min(
            fiber_prev, merge_time(l, MergeKind::kSortedHeap, 600, true));
        fiber_now = std::min(
            fiber_now, merge_time(l, MergeKind::kUnsortedHash, 600, true));
      }
      merge_table.add_row({"", "Merge-Fiber", fmt_int(l),
                           fmt_time(fiber_prev), fmt_time(fiber_now),
                           fmt(fiber_prev / fiber_now)});
      if (l == 16) {
        l16_merge[0] = layer_prev / layer_now;
        l16_merge[1] = fiber_prev / fiber_now;
      }
    }
  }
  merge_table.print();
  // Even a 2-way merge's input nnz passes the pieces' height.
  const auto two_way_nnz = static_cast<Index>(2 * kMergeFill * kMergeRows);
  std::printf("merge pieces: %lld rows, ~%.0f nnz per piece column -> the "
              "%s accumulator side at every fan-in\n",
              static_cast<long long>(kMergeRows), kMergeFill,
              use_dense_rows(kMergeRows, two_way_nnz) ? "dense" : "hash");
  std::printf("\nat l=16: Local-Multiply speedup %.2fx (paper: ~1.3x), "
              "Merge-Layer speedup %.1fx (paper: ~11x), Merge-Fiber "
              "speedup %.1fx (paper: ~10x)\n",
              l16_mult, l16_merge[0], l16_merge[1]);
  std::printf(
      "\nShape criteria: merges favor hash increasingly with fan-in; the\n"
      "absolute gap vs the paper's 10x also reflects their heavier heap\n"
      "implementation — ours (std::priority_queue over spans) narrows it.\n");
  return 0;
}
