#include "summa/stages.hpp"

#include <vector>

#include "common/error.hpp"
#include "sparse/serialize.hpp"
#include "summa/sparse_comm.hpp"

namespace casp {

StageStream::StageStream(Grid3D& grid, const CscMat& local_a,
                         const CscMat& local_b, bool sparse_comm,
                         Phases phases)
    : row_comm_(grid.row_comm()),
      col_comm_(grid.col_comm()),
      // Split communicators share the world's recorder, so spans opened
      // through either comm land on the same per-rank timeline.
      rec_(row_comm_.recorder()),
      local_a_(local_a),
      local_b_(local_b),
      sparse_(sparse_comm),
      phases_(phases),
      stages_(grid.q()) {
  // The sparse A request needs stage 0's B block, so next(0) posts it.
  if (!sparse_) post_a(0);
  post_b(0);
}

std::pair<CscView, CscView> StageStream::next(int s) {
  CASP_CHECK_MSG(s == next_stage_ && s < stages_,
                 "StageStream: next(" << s << ") but stage " << next_stage_
                                      << " of " << stages_ << " is due");
  ++next_stage_;
  const bool more = s + 1 < stages_;
  if (!sparse_) {
    CscView a_view = wait_a();
    CscView b_view = wait_b();
    if (more) {
      post_a(s + 1);
      post_b(s + 1);
    }
    return {std::move(a_view), std::move(b_view)};
  }
  CscView b_view = wait_b();
  {
    // The stage's multiply dereferences only the A columns in B_s's row
    // support, so that is all this rank asks the stage root for.
    const auto span = phase(phases_.a);
    Payload request;
    if (row_comm_.rank() != s)
      request = pack_need_request(
          coalesce_cols(row_support(b_view), kSparseCoalesceGap));
    a_exchange_ = row_comm_.isparse_exchange(s, std::move(request));
  }
  if (more) post_b(s + 1);
  // Stage s's A block is as wide as B_s is tall.
  CscView a_view = wait_sparse_a(s, b_view.nrows());
  return {std::move(a_view), std::move(b_view)};
}

std::optional<obs::PhaseSpan> StageStream::phase(const char* name) {
  return name != nullptr
             ? std::optional<obs::PhaseSpan>(std::in_place, rec_, name)
             : std::optional<obs::PhaseSpan>();
}

// The stage-s owner serializes its block once into a payload; the broadcast
// forwards the handle, and receivers multiply straight out of the wire
// buffer (unpack_csc_view): no per-hop or per-rank copies.
void StageStream::post_a(int s) {
  const auto span = phase(phases_.a);
  a_bcast_ = row_comm_.ibcast_payload(
      s, row_comm_.rank() == s ? pack_csc_payload(local_a_) : Payload{});
}

void StageStream::post_b(int s) {
  const auto span = phase(phases_.b);
  b_bcast_ = col_comm_.ibcast_payload(
      s, col_comm_.rank() == s ? pack_csc_payload(local_b_) : Payload{});
}

CscView StageStream::wait_a() {
  const auto span = phase(phases_.a);
  return unpack_csc_view(row_comm_.bcast_wait(a_bcast_));
}

// The root serves every peer's need-list from its packed block, then reads
// the block itself; peers reassemble their reply. Every A block of this
// process row spans the row's rows, so the reply's shape is known here.
CscView StageStream::wait_sparse_a(int s, Index ncols) {
  const auto span = phase(phases_.a);
  const bool root = row_comm_.rank() == s;
  const Payload packed = root ? pack_csc_payload(local_a_) : Payload{};
  std::vector<Payload> parts = row_comm_.sparse_wait(
      a_exchange_, [&packed](int /*src*/, Payload request) {
        return make_sparse_reply(packed, request);
      });
  return root ? unpack_csc_view(packed)
              : assemble_sparse_block(parts, local_a_.nrows(), ncols);
}

CscView StageStream::wait_b() {
  const auto span = phase(phases_.b);
  return unpack_csc_view(col_comm_.bcast_wait(b_bcast_));
}

}  // namespace casp
