// Sparsity-aware A-block exchange for the SUMMA stage loop (SpComm3D
// direction, Abubaker & Hoefler).
//
// In stage s, rank (i,j) multiplies A_is x B_sj, and the only columns of
// A_is the Gustavson kernel dereferences are the *row support* of B_sj —
// on skewed inputs a small fraction of the block. Instead of broadcasting
// the whole CSC block, each receiver sends the stage root a need-list of
// coalesced column ranges (metadata round), and the root replies with only
// those ranges (data round), packed as Payload::subviews of its
// already-packed block so no block bytes are ever copied on the sender.
// The receiver splices the ranges back into a full-width CscView-compatible
// block, so the kernels are untouched and the result is bit-identical to
// the dense path. B stays dense: its dead weight is *rows* of B_sj (those
// hitting empty A columns), which is not expressible as contiguous
// subviews of a CSC payload without sender-side copies.
//
// Wire protocol (all fields 8-byte words, so every subview stays 8-aligned):
//   request = one message: [u64 nranges] [i64 begin, i64 end]*nranges
//             (half-open, ascending).
//   reply   = one gather-list message (vmpi/comm.hpp, detail::Message)
//             whose parts are a descriptor and then the block bytes; the
//             part count is the message's own, so there is no count header:
//     kind 0 (dense fallback): [u64 0], then the full packed block (one
//       subview handle of the whole payload — still zero-copy).
//     kind 1 (sparse):  [u64 1][i64 nrows][i64 ncols][u64 nranges]
//       [i64 begin, i64 end]*nranges
//       [colptr[begin..end] slices, (end-begin+1) words each]
//       then per range: the rowids subview and the vals subview of the
//       packed block.
// So a (stage, peer) pair costs two messages, a request and a reply,
// however many ranges the reply carries: the sparse α term of
// model/costs.cpp. The root falls back to kind 0 whenever the sparse reply
// would ship at least as many bytes as the dense block.
#pragma once

#include <span>
#include <vector>

#include "common/payload.hpp"
#include "sparse/csc_ref.hpp"
#include "sparse/csc_view.hpp"
#include "vmpi/comm.hpp"

namespace casp {

/// Half-open needed-column range [begin, end) of the sender's block.
struct ColRange {
  Index begin = 0;
  Index end = 0;
};

/// Receiver-side gap bridging: ranges separated by at most this many
/// unneeded columns merge into one. Bridging a gap ships its columns as
/// dead weight (their colptr words plus whatever nnz they hold) while
/// splitting costs a fixed ~3 descriptor words and two more reply parts,
/// so the break-even gap is small; a large value degenerates scattered
/// supports into one whole-block range and the dense fallback. 2 keeps
/// nearly all of the volume savings while bounding the range count on
/// supports with many single-column holes.
inline constexpr Index kSparseCoalesceGap = 2;

/// Distinct row indices of `b`, ascending: exactly the A columns the
/// stage's local multiply will dereference.
std::vector<Index> row_support(const CscConstRef& b);

/// Coalesce an ascending column list into half-open ranges, bridging gaps
/// of at most `max_gap` columns.
std::vector<ColRange> coalesce_cols(std::span<const Index> cols,
                                    Index max_gap);

/// Request payload for a need-list (see wire protocol above).
Payload pack_need_request(std::span<const ColRange> ranges);
std::vector<ColRange> unpack_need_request(const Payload& request);

/// Root side: build the reply for one peer from the root's packed CSC
/// block. All block bytes are subviews of `packed_block`; only the small
/// descriptor is freshly built.
vmpi::SparseReply make_sparse_reply(const Payload& packed_block,
                                    const Payload& request);

/// Receiver side: reassemble a reply's parts into a full-width block whose
/// requested columns are bit-identical to the sender's. Unrequested
/// columns are empty, which the multiply never observes (it only touches
/// the row support the request covered). `nrows` x `ncols` is the shape the
/// receiver expects the root's block to have. A reply that does not decode
/// to a block of that shape (truncated parts, a wrong part count, ranges
/// out of order or past the block, a colptr slice that is not monotone)
/// fails a CASP_CHECK before anything is allocated from its numbers.
CscView assemble_sparse_block(std::span<const Payload> parts, Index nrows,
                              Index ncols);

}  // namespace casp
