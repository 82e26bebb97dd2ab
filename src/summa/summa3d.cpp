#include "summa/summa3d.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/recorder.hpp"
#include "sparse/serialize.hpp"
#include "summa/summa2d.hpp"

namespace casp {

template <typename SR>
CscMat summa3d(Grid3D& grid, const CscMat& local_a, const CscMat& local_b,
               const SummaOptions& opts, std::span<const Index> col_splits,
               const CscMat* mask) {
  const int l = grid.layers();
  const Index ncols = local_b.ncols();

  // ColSplit (line 4, Alg. 2): just the boundaries — the kernel that
  // produces D writes piece m of it straight into its own wire image.
  std::vector<Index> splits;
  if (col_splits.empty()) {
    splits.resize(static_cast<std::size_t>(l) + 1);
    for (int m = 0; m <= l; ++m)
      splits[static_cast<std::size_t>(m)] = part_low(m, l, ncols);
  } else {
    CASP_CHECK_MSG(static_cast<int>(col_splits.size()) == l + 1,
                   "summa3d: need l+1 column split boundaries");
    splits.assign(col_splits.begin(), col_splits.end());
    CASP_CHECK_MSG(splits.front() == 0 && splits.back() == ncols &&
                       std::is_sorted(splits.begin(), splits.end()),
                   "summa3d: column splits must ascend from 0 to " << ncols);
  }

  // Stage loop + Merge-Layer within my layer, D leaving as l wire pieces.
  std::vector<Payload> outgoing = summa2d<SR>(grid, local_a, local_b, opts, splits, mask);
  MemoryCharge d_charge;
  if (opts.memory != nullptr) {
    Index d_nnz = 0;
    for (const Payload& piece : outgoing) d_nnz += unpack_csc_view(piece).nnz();
    d_charge = MemoryCharge(*opts.memory,
                            static_cast<Bytes>(d_nnz) * kBytesPerNonzero,
                            "layer-merged D");
  }

  vmpi::Comm& fiber = grid.fiber_comm();
  obs::Recorder& rec = fiber.recorder();
  obs::ScopedTag layer_tag(rec, obs::ScopedTag::Kind::kLayer, grid.layer());
  if (opts.memory != nullptr)
    rec.sample_memory(*opts.memory, "memory.live_bytes");
  d_charge.reset();  // D is released before holding l received pieces

  // AllToAll-Fiber (line 5) forwards the pieces' handles without copying.
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
    c = merge_matrices<SR>(csc_refs(pieces), opts.merge_kind(), opts.threads,
                           /*sort_output=*/true);
  }
  if (opts.memory != nullptr)
    rec.sample_memory(*opts.memory, "memory.live_bytes");
  return c;
}

template CscMat summa3d<PlusTimes>(Grid3D&, const CscMat&, const CscMat&,
                                   const SummaOptions&, std::span<const Index>,
                                   const CscMat*);
template CscMat summa3d<MinPlus>(Grid3D&, const CscMat&, const CscMat&,
                                 const SummaOptions&, std::span<const Index>,
                                 const CscMat*);
template CscMat summa3d<MaxMin>(Grid3D&, const CscMat&, const CscMat&,
                                const SummaOptions&, std::span<const Index>,
                                const CscMat*);
template CscMat summa3d<OrAnd>(Grid3D&, const CscMat&, const CscMat&,
                               const SummaOptions&, std::span<const Index>,
                               const CscMat*);

}  // namespace casp
