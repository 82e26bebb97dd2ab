#include "summa/summa3d.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/recorder.hpp"
#include "sparse/serialize.hpp"
#include "summa/summa2d.hpp"

namespace casp {

template <typename SR>
CscMat summa3d(Grid3D& grid, const CscMat& local_a, const CscMat& local_b,
               const SummaOptions& opts, std::span<const Index> col_splits) {
  const int l = grid.layers();

  // Stage loop + Merge-Layer within my layer.
  CscMat d = summa2d<SR>(grid, local_a, local_b, opts);
  MemoryCharge d_charge;
  if (opts.memory != nullptr)
    d_charge = MemoryCharge(*opts.memory,
                            static_cast<Bytes>(d.nnz()) * kBytesPerNonzero,
                            "layer-merged D");

  // ColSplit (line 4, Alg. 2).
  std::vector<Index> splits;
  if (col_splits.empty()) {
    splits.resize(static_cast<std::size_t>(l) + 1);
    for (int m = 0; m <= l; ++m)
      splits[static_cast<std::size_t>(m)] = part_low(m, l, d.ncols());
  } else {
    CASP_CHECK_MSG(static_cast<int>(col_splits.size()) == l + 1,
                   "summa3d: need l+1 column split boundaries");
    splits.assign(col_splits.begin(), col_splits.end());
    CASP_CHECK(splits.front() == 0 && splits.back() == d.ncols());
  }

  vmpi::Comm& fiber = grid.fiber_comm();
  obs::Recorder& rec = fiber.recorder();
  obs::ScopedTag layer_tag(rec, obs::ScopedTag::Kind::kLayer, grid.layer());
  if (opts.memory != nullptr)
    rec.sample_memory(*opts.memory, "memory.live_bytes");

  // AllToAll-Fiber (line 5): piece m of my D goes to layer m, packed once
  // into a payload whose handle the exchange forwards without copying.
  std::vector<Payload> outgoing(static_cast<std::size_t>(l));
  for (int m = 0; m < l; ++m) {
    outgoing[static_cast<std::size_t>(m)] = pack_csc_payload(d.slice_cols(
        splits[static_cast<std::size_t>(m)], splits[static_cast<std::size_t>(m) + 1]));
  }
  d = CscMat();  // release D before holding l received pieces
  d_charge.reset();

  std::vector<Payload> incoming;
  {
    obs::PhaseSpan span(rec, steps::kAllToAllFiber);
    incoming = fiber.alltoall_payload(std::move(outgoing));
  }

  // Merge straight out of the received wire buffers — the views borrow the
  // payload arrays, so the pieces are never deserialized into owned copies.
  std::vector<CscView> pieces;
  pieces.reserve(static_cast<std::size_t>(l));
  std::vector<MemoryCharge> piece_charges;
  for (const Payload& buf : incoming) {
    pieces.push_back(unpack_csc_view(buf));
    if (opts.memory != nullptr)
      piece_charges.emplace_back(
          *opts.memory,
          static_cast<Bytes>(pieces.back().nnz()) * kBytesPerNonzero,
          "fiber piece");
  }

  // Merge-Fiber (line 6), emitting the single final sort's order directly.
  CscMat c;
  {
    obs::Span span(rec, steps::kMergeFiber);
    c = merge_matrices<SR>(csc_refs(pieces), opts.merge_kind, opts.threads,
                           opts.sort_final);
  }
  if (opts.memory != nullptr)
    rec.sample_memory(*opts.memory, "memory.live_bytes");
  return c;
}

template CscMat summa3d<PlusTimes>(Grid3D&, const CscMat&, const CscMat&,
                                   const SummaOptions&,
                                   std::span<const Index>);
template CscMat summa3d<MinPlus>(Grid3D&, const CscMat&, const CscMat&,
                                 const SummaOptions&, std::span<const Index>);
template CscMat summa3d<MaxMin>(Grid3D&, const CscMat&, const CscMat&,
                                const SummaOptions&, std::span<const Index>);
template CscMat summa3d<OrAnd>(Grid3D&, const CscMat&, const CscMat&,
                               const SummaOptions&, std::span<const Index>);

}  // namespace casp
