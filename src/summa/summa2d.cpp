#include "summa/summa2d.hpp"

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/recorder.hpp"
#include "sparse/serialize.hpp"
#include "summa/stages.hpp"

namespace casp {

namespace {

/// The numeric work of a layer: Local-Multiply per stage, then
/// Merge-Layer writing D's wire pieces. At q = 1 the lone Local-Multiply
/// writes them (a one-input merge would not change a Gustavson column);
/// the Merge-Layer span stays so every report lists the step.
template <typename SR>
struct LayerProduct {
  obs::Recorder& rec;
  const SummaOptions& opts;
  int stages;
  std::span<const Index> splits;
  const CscConstRef* mask;
  std::vector<CscMat> partials = {};
  std::vector<MemoryCharge> charges = {};  // released with the product
  std::vector<Payload> pieces = {};

  void multiply(int s, const CscView& a_view, const CscView& b_view) {
    CASP_CHECK_MSG(a_view.ncols() == b_view.nrows(),
                   "summa2d stage " << s << ": inner dim mismatch "
                                    << a_view.ncols() << " vs " << b_view.nrows());
    Index nnz = 0;
    {
      obs::Span span(rec, steps::kLocalMultiply);
      if (stages == 1) {
        pieces = local_spgemm_wire<SR>(a_view, b_view, splits,
                                       opts.local_kind(), opts.threads,
                                       opts.symbolic_col_nnz, mask);
        for (const Payload& piece : pieces) nnz += unpack_csc_view(piece).nnz();
      } else {
        partials.push_back(local_spgemm<SR>(a_view, b_view, opts.local_kind(),
                                            opts.threads, opts.symbolic_col_nnz,
                                            mask));
        nnz = partials.back().nnz();
      }
    }
    if (opts.memory != nullptr) {
      // Unmerged per-stage results are exactly the mem(C) term of Eq. 1:
      // they stay live until Merge-Layer.
      charges.emplace_back(*opts.memory,
                           static_cast<Bytes>(nnz) * kBytesPerNonzero,
                           "unmerged stage output");
      rec.sample_memory(*opts.memory, "memory.live_bytes");
    }
  }

  std::vector<Payload> merge() {
    obs::Span span(rec, steps::kMergeLayer);
    if (stages > 1)
      pieces = merge_matrices_wire<SR>(csc_refs(partials), splits,
                                       opts.merge_kind(), opts.threads);
    return std::move(pieces);
  }
};

}  // namespace

template <typename SR>
std::vector<Payload> summa2d(Grid3D& grid, const CscMat& local_a,
                             const CscMat& local_b, const SummaOptions& opts,
                             std::span<const Index> col_splits,
                             const CscMat* mask) {
  obs::Recorder& rec = grid.row_comm().recorder();
  obs::ScopedTag layer_tag(rec, obs::ScopedTag::Kind::kLayer, grid.layer());
  const int stages = grid.q();
  const CscConstRef mask_ref = mask != nullptr ? CscConstRef(*mask) : CscConstRef();
  LayerProduct<SR> layer{rec, opts, stages, col_splits,
                         mask != nullptr ? &mask_ref : nullptr};
  StageStream stream(grid, local_a, local_b, opts.sparse_comm,
                     {steps::kABcast, steps::kBBcast});
  for (int s = 0; s < stages; ++s) {
    obs::ScopedTag stage_tag(rec, obs::ScopedTag::Kind::kStage, s);
    // Stage s+1's messages are already in flight while this multiply runs.
    auto [a_view, b_view] = stream.next(s);
    layer.multiply(s, a_view, b_view);
  }
  return layer.merge();
}

template std::vector<Payload> summa2d<PlusTimes>(Grid3D&, const CscMat&, const CscMat&,
    const SummaOptions&, std::span<const Index>, const CscMat*);
template std::vector<Payload> summa2d<MinPlus>(Grid3D&, const CscMat&, const CscMat&,
    const SummaOptions&, std::span<const Index>, const CscMat*);
template std::vector<Payload> summa2d<MaxMin>(Grid3D&, const CscMat&, const CscMat&,
    const SummaOptions&, std::span<const Index>, const CscMat*);
template std::vector<Payload> summa2d<OrAnd>(Grid3D&, const CscMat&, const CscMat&,
    const SummaOptions&, std::span<const Index>, const CscMat*);

}  // namespace casp
