#include "summa/summa2d.hpp"

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/recorder.hpp"
#include "sparse/serialize.hpp"
#include "summa/sparse_comm.hpp"

namespace casp {

namespace {

/// The two in-flight broadcasts of one SUMMA stage.
struct StageBcasts {
  vmpi::PendingBcast a;
  vmpi::PendingBcast b;
};

/// The tail both stage loops share: Local-Multiply per stage, then
/// Merge-Layer writing D's wire pieces. At q = 1 the lone Local-Multiply
/// writes them (a one-input merge would not change a Gustavson column);
/// the Merge-Layer span stays so every report lists the step.
template <typename SR>
struct LayerProduct {
  obs::Recorder& rec;
  const SummaOptions& opts;
  int stages;
  std::span<const Index> splits;
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
        pieces = local_spgemm_wire<SR>(a_view, b_view, splits, opts.local_kind,
                                       opts.threads, opts.symbolic_col_nnz);
        for (const Payload& piece : pieces) nnz += unpack_csc_view(piece).nnz();
      } else {
        partials.push_back(local_spgemm<SR>(a_view, b_view, opts.local_kind,
                                            opts.threads, opts.symbolic_col_nnz));
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
                                       opts.merge_kind, opts.threads);
    return std::move(pieces);
  }
};

/// Sparse-comm stage loop: B keeps the dense ibcast schedule, but A ships
/// via the need-list exchange — each stage's request is derived from the
/// row support of the B block received for that stage, so the B wait moves
/// ahead of the A exchange (prepare_stage) while the reply round and the
/// request for s+1 overlap the multiplies around them. Bit-identical to
/// the dense loop: shipped A columns cover exactly the row support the
/// multiply dereferences.
template <typename SR>
std::vector<Payload> summa2d_sparse(Grid3D& grid, const CscMat& local_a,
                                    const CscMat& local_b,
                                    const SummaOptions& opts,
                                    std::span<const Index> col_splits) {
  vmpi::Comm& row_comm = grid.row_comm();
  vmpi::Comm& col_comm = grid.col_comm();
  obs::Recorder& rec = row_comm.recorder();
  obs::ScopedTag layer_tag(rec, obs::ScopedTag::Kind::kLayer, grid.layer());
  const int stages = grid.q();
  LayerProduct<SR> layer{rec, opts, stages, col_splits};

  SparseAExchange a_exchange(row_comm, local_a);

  auto post_b = [&](int s) {
    obs::PhaseSpan span(rec, steps::kBBcast);
    Payload buf =
        col_comm.rank() == s ? pack_csc_payload(local_b) : Payload{};
    return col_comm.ibcast_payload(s, std::move(buf));
  };
  // Wait the stage's B, then post the A need-list it induces.
  auto prepare_stage = [&](int s, vmpi::PendingBcast& b_pending) {
    CscView b_view;
    {
      obs::PhaseSpan span(rec, steps::kBBcast);
      b_view = unpack_csc_view(col_comm.bcast_wait(b_pending));
    }
    {
      obs::PhaseSpan span(rec, steps::kABcast);
      a_exchange.post(s, b_view);
    }
    return b_view;
  };

  vmpi::PendingBcast b_pending = post_b(0);
  CscView b_view = prepare_stage(0, b_pending);
  for (int s = 0; s < stages; ++s) {
    obs::ScopedTag stage_tag(rec, obs::ScopedTag::Kind::kStage, s);
    if (opts.pipeline && s + 1 < stages) b_pending = post_b(s + 1);
    CscView a_view;
    {
      obs::PhaseSpan span(rec, steps::kABcast);
      a_view = a_exchange.wait(s);
    }
    layer.multiply(s, a_view, b_view);
    if (s + 1 < stages) {
      if (!opts.pipeline) b_pending = post_b(s + 1);
      b_view = prepare_stage(s + 1, b_pending);
    }
  }

  return layer.merge();
}

}  // namespace

template <typename SR>
std::vector<Payload> summa2d(Grid3D& grid, const CscMat& local_a,
                             const CscMat& local_b, const SummaOptions& opts,
                             std::span<const Index> col_splits) {
  if (opts.sparse_comm)
    return summa2d_sparse<SR>(grid, local_a, local_b, opts, col_splits);
  vmpi::Comm& row_comm = grid.row_comm();
  vmpi::Comm& col_comm = grid.col_comm();
  // Split communicators share the world's recorder, so spans opened through
  // either comm land on the same per-rank timeline.
  obs::Recorder& rec = row_comm.recorder();
  obs::ScopedTag layer_tag(rec, obs::ScopedTag::Kind::kLayer, grid.layer());
  const int stages = grid.q();
  LayerProduct<SR> layer{rec, opts, stages, col_splits};

  // The stage-s owner serializes its block once into a payload; the
  // broadcast forwards the handle, and receivers multiply straight out of
  // the wire buffer (unpack_csc_view) — no per-hop or per-rank copies.
  auto post_stage = [&](int s) {
    StageBcasts pending;
    {
      obs::PhaseSpan span(rec, steps::kABcast);
      Payload buf =
          row_comm.rank() == s ? pack_csc_payload(local_a) : Payload{};
      pending.a = row_comm.ibcast_payload(s, std::move(buf));
    }
    {
      obs::PhaseSpan span(rec, steps::kBBcast);
      Payload buf =
          col_comm.rank() == s ? pack_csc_payload(local_b) : Payload{};
      pending.b = col_comm.ibcast_payload(s, std::move(buf));
    }
    return pending;
  };
  auto wait_stage = [&](StageBcasts& pending) {
    CscView a_view;
    {
      obs::PhaseSpan span(rec, steps::kABcast);
      a_view = unpack_csc_view(row_comm.bcast_wait(pending.a));
    }
    CscView b_view;
    {
      obs::PhaseSpan span(rec, steps::kBBcast);
      b_view = unpack_csc_view(col_comm.bcast_wait(pending.b));
    }
    return std::pair<CscView, CscView>(std::move(a_view), std::move(b_view));
  };

  StageBcasts current = post_stage(0);
  for (int s = 0; s < stages; ++s) {
    obs::ScopedTag stage_tag(rec, obs::ScopedTag::Kind::kStage, s);
    auto [a_view, b_view] = wait_stage(current);
    // Pipelined: stage s+1's broadcasts go into flight before stage s's
    // multiply, overlapping communication with compute. Blocking: post only
    // after the multiply finishes. Either way every stage posts then waits
    // its own broadcasts in SPMD order, so the traffic is identical.
    if (opts.pipeline && s + 1 < stages) current = post_stage(s + 1);
    layer.multiply(s, a_view, b_view);
    if (!opts.pipeline && s + 1 < stages) current = post_stage(s + 1);
  }

  return layer.merge();
}

template std::vector<Payload> summa2d<PlusTimes>(Grid3D&, const CscMat&, const CscMat&,
    const SummaOptions&, std::span<const Index>);
template std::vector<Payload> summa2d<MinPlus>(Grid3D&, const CscMat&, const CscMat&,
    const SummaOptions&, std::span<const Index>);
template std::vector<Payload> summa2d<MaxMin>(Grid3D&, const CscMat&, const CscMat&,
    const SummaOptions&, std::span<const Index>);
template std::vector<Payload> summa2d<OrAnd>(Grid3D&, const CscMat&, const CscMat&,
    const SummaOptions&, std::span<const Index>);

}  // namespace casp
