#include "model/costs.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/math.hpp"
#include "kernels/symbolic.hpp"
#include "sparse/stats.hpp"
#include "summa/symbolic3d.hpp"

namespace casp {

ProblemStats analyze_problem(const CscMat& a, const CscMat& b) {
  ProblemStats s;
  s.nnz_a = a.nnz();
  s.nnz_b = b.nnz();
  s.flops = multiply_flops(a, b);
  s.nnz_c = symbolic_nnz(a, b);
  s.unmerged_nnz = 0;  // caller may refine with layered_unmerged_nnz
  return s;
}

namespace {
double lg(double x) { return std::log2(std::max(2.0, x)); }
}  // namespace

StepSeconds predict_steps(const Machine& machine, const ProblemStats& stats,
                          const ModelConfig& config) {
  CASP_CHECK(config.p >= 1 && config.l >= 1 && config.b >= 1);
  const double p = static_cast<double>(config.p);
  const double l = static_cast<double>(config.l);
  const double b = static_cast<double>(config.b);
  const double q = std::sqrt(p / l);  // SUMMA stage count / row size
  const double r = static_cast<double>(kBytesPerNonzero);
  const double nnz_a = static_cast<double>(stats.nnz_a);
  const double nnz_b = static_cast<double>(stats.nnz_b);
  const double flops = static_cast<double>(stats.flops);
  const double vol = static_cast<double>(stats.effective_unmerged());

  StepSeconds t;

  // A-Bcast: b*q tree broadcasts of an nnzA/p block along each process row.
  // With sparse_comm, each stage is a request+reply round instead of a
  // tree: 2 messages per peer replace the lg(q) broadcast hops, and only
  // a_need_fraction of the block's bytes travel.
  if (config.sparse_comm) {
    t[steps::kABcast] =
        machine.alpha * b * 2.0 * q +
        machine.beta * r * b * nnz_a * (q / p) * stats.a_need_fraction;
  } else {
    t[steps::kABcast] = machine.alpha * b * q * lg(q) +
                        machine.beta * r * b * nnz_a * q / p;
  }

  // B-Bcast: same schedule but each batch carries nnzB/(b p), so the
  // bandwidth term is independent of b (Table II) while latency grows.
  t[steps::kBBcast] = machine.alpha * b * q * lg(q) +
                      machine.beta * r * nnz_b * q / p;

  // Symbolic: one extra pass of both broadcast schedules (b-independent)
  // plus the cheap counting compute and the tiny allreduce.
  t[steps::kSymbolic] = 2.0 * machine.alpha * q * lg(q) +
                        machine.beta * r * (nnz_a + nnz_b) * q / p +
                        flops / (p * machine.symbolic_rate) +
                        machine.alpha * lg(p);

  // Local-Multiply: total work is flops/p, but the accumulator cost per
  // flop grows with the in-multiply compression (flops / unmerged output):
  // with few layers each local product is higher-rank, hash tables are
  // fuller and probe chains longer. This is the Sec. V-D observation that
  // Local-Multiply *decreases* as l grows (3.6x for Friendster, 1.2x for
  // Isolates-small from l=1 to 16).
  const double local_cf = std::max(1.0, flops / std::max(1.0, vol));
  t[steps::kLocalMultiply] = flops * (1.0 + 0.8 * std::log(local_cf)) /
                             (p * machine.multiply_rate);

  // Merge-Layer: consumes every unmerged intermediate entry once; the
  // job-wide volume is bounded by flops/p per process and is invariant in
  // both b and l (Table III / Table VI's "flat" row). Heap merge pays a
  // lg(q)-way factor; hash merge is linear — the paper's
  // order-of-magnitude win (Table VII). A one-stage layer (q = 1, i.e.
  // l = p) hands its lone partial through unmerged, like Merge-Fiber at
  // l = 1.
  const double layer_vol = flops / p;
  if (config.p == config.l) {
    t[steps::kMergeLayer] = 0.0;
  } else {
    t[steps::kMergeLayer] =
        config.hash_kernels
            ? layer_vol / machine.hash_merge_rate
            : layer_vol * lg(q) / machine.heap_merge_rate;
  }

  if (config.l > 1) {
    // AllToAll-Fiber: pairwise exchange of the layer-merged volume among l
    // ranks per fiber, once per batch.
    t[steps::kAllToAllFiber] =
        machine.alpha * b * (l - 1.0) + machine.beta * r * vol / p;
    const double fiber_vol = vol / p;
    t[steps::kMergeFiber] =
        config.hash_kernels
            ? fiber_vol / machine.hash_merge_rate
            : fiber_vol * lg(l) / machine.heap_merge_rate;
  } else {
    t[steps::kAllToAllFiber] = 0.0;
    t[steps::kMergeFiber] = 0.0;
  }
  return t;
}

double total_seconds(const StepSeconds& steps) {
  double total = 0.0;
  for (const auto& [name, seconds] : steps) total += seconds;
  return total;
}

Index predict_batches(const ProblemStats& stats, Index p, Bytes total_memory) {
  const double r = static_cast<double>(kBytesPerNonzero);
  // Most loaded process: average share scaled by the imbalance factor.
  const double max_inputs = r *
                            static_cast<double>(stats.nnz_a + stats.nnz_b) *
                            stats.imbalance / static_cast<double>(p);
  const double max_unmerged = r *
                              static_cast<double>(stats.effective_unmerged()) *
                              stats.imbalance / static_cast<double>(p);
  const Index b = eq2_batches(total_memory, p, max_inputs, max_unmerged);
  if (b == 0) throw MemoryError("predict_batches: inputs alone exceed memory");
  return b;
}

std::string format_steps(const StepSeconds& steps) {
  std::ostringstream os;
  os.precision(4);
  bool first = true;
  for (const char* name : steps::kAll) {
    const auto it = steps.find(name);
    if (it == steps.end()) continue;
    if (!first) os << " ";
    first = false;
    os << name << "=" << it->second << "s";
  }
  return os.str();
}

}  // namespace casp
