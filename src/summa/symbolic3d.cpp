#include "summa/symbolic3d.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "grid/dist.hpp"
#include "kernels/symbolic.hpp"
#include "obs/recorder.hpp"
#include "sparse/stats.hpp"
#include "summa/stages.hpp"

namespace casp {

Index eq2_batches(Bytes total_memory, Index p, double max_input_bytes,
                  double max_unmerged_bytes) {
  if (total_memory == 0) return 1;
  const double per_process_memory =
      static_cast<double>(total_memory) / static_cast<double>(p);
  const double denom = per_process_memory - max_input_bytes;
  if (denom <= 0.0) return 0;
  return std::max<Index>(
      1, static_cast<Index>(std::ceil(max_unmerged_bytes / denom)));
}

Index symbolic_batches(const SymbolicResult& sym, Bytes total_memory,
                       Index p) {
  const double r = static_cast<double>(kBytesPerNonzero);
  const Index b =
      eq2_batches(total_memory, p,
                  r * static_cast<double>(sym.max_nnz_a + sym.max_nnz_b),
                  r * static_cast<double>(sym.max_nnz_c));
  if (b == 0) {
    throw MemoryError(
        "symbolic3d: inputs alone exceed the per-process memory share; "
        "batching cannot help (Eq. 2 denominator <= 0)");
  }
  return b;
}

SymbolicResult symbolic3d(Grid3D& grid, const CscMat& local_a,
                          const CscMat& local_b, Bytes total_memory,
                          const SummaOptions& opts) {
  vmpi::Comm& world = grid.world();
  const int stages = grid.q();

  // Whole step is one span, its traffic recorded under "Symbolic": the
  // experiments (Fig. 8) break the symbolic step out of the bcast steps.
  // All comms here share the world's recorder, so the single top-level
  // phase covers the row/column broadcasts too.
  obs::Recorder& rec = world.recorder();
  obs::PhaseSpan world_span(rec, steps::kSymbolic);

  // A mask confines every stage's count to this rank's block of it, so
  // Eq. (2) and the column counts size the masked product the run holds.
  const CscMat mask_block =
      opts.mask != nullptr ? product_block(grid, *opts.mask) : CscMat();
  const CscConstRef mask_ref(mask_block);
  const CscConstRef* mask = opts.mask != nullptr ? &mask_ref : nullptr;

  Index my_unmerged = 0;
  Index my_flops = 0;
  std::vector<Index> my_col_nnz;
  // Per-stage column counts accumulate into the whole-multiplication
  // per-column totals; their sum is exactly the old symbolic_nnz term.
  auto tally_stage = [&](const CscConstRef& a_view,
                         const CscConstRef& b_view) {
    const std::vector<Index> stage_cols = symbolic_column_nnz(a_view, b_view, mask);
    if (my_col_nnz.empty()) my_col_nnz.assign(stage_cols.size(), 0);
    CASP_CHECK_MSG(my_col_nnz.size() == stage_cols.size(),
                   "symbolic3d: stage B widths disagree within a block "
                   "column");
    for (std::size_t j = 0; j < stage_cols.size(); ++j) {
      my_col_nnz[j] += stage_cols[j];
      my_unmerged += stage_cols[j];
    }
    my_flops += multiply_flops(a_view, b_view);
  };

  // Same stage schedule as summa2d. No phases of its own: the Symbolic
  // span above already holds this traffic, and a nested span of the same
  // name would count its time twice.
  StageStream stream(grid, local_a, local_b, opts.sparse_comm, {});
  for (int s = 0; s < stages; ++s) {
    obs::ScopedTag stage_tag(rec, obs::ScopedTag::Kind::kStage, s);
    auto [a_view, b_view] = stream.next(s);
    tally_stage(a_view, b_view);
  }

  SymbolicResult result;
  result.col_nnz = std::move(my_col_nnz);
  result.max_nnz_c = world.allreduce_max<Index>(my_unmerged);
  result.max_nnz_a = world.allreduce_max<Index>(local_a.nnz());
  result.max_nnz_b = world.allreduce_max<Index>(local_b.nnz());
  result.total_unmerged_nnz = world.allreduce_sum<Index>(my_unmerged);
  result.total_flops = world.allreduce_sum<Index>(my_flops);

  result.batches = symbolic_batches(result, total_memory, world.size());
  return result;
}

}  // namespace casp
