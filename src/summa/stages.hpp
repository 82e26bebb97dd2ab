// The SUMMA stage schedule (Algorithm 1's loop, also run by Algorithm 3).
//
// At stage s the owners in grid column s broadcast their A block along each
// process row and the owners in grid row s broadcast their B block down
// each process column. StageStream is the one place that schedule lives:
// summa2d multiplies the stage blocks it hands out, symbolic3d counts them.
//
// The stream always prefetches: next(s) posts stage s+1's messages before
// it returns, so they are in flight while the caller works on stage s.
//   dense:  wait A_s, wait B_s, then post A_{s+1} and B_{s+1}.
//   sparse: wait B_s, post the A need-list it induces (sparse_comm.hpp),
//           post B_{s+1}, then wait A_s.
// Every rank posts and waits in the same order, so the traffic ledger is
// the closed-form Table II count however the stages overlap.
#pragma once

#include <optional>
#include <utility>

#include "grid/grid3d.hpp"
#include "obs/recorder.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/csc_view.hpp"
#include "vmpi/comm.hpp"

namespace casp {

class StageStream {
 public:
  /// Traffic phases (and span names) the A and B messages are recorded
  /// under. Null records them under whatever phase the caller has open.
  struct Phases {
    const char* a = nullptr;
    const char* b = nullptr;
  };

  /// Collective over grid.layer_comm(); posts stage 0's first messages.
  /// `local_a` and `local_b` must outlive *this. `sparse_comm` ships A by
  /// the need-list exchange instead of a broadcast (SummaOptions).
  StageStream(Grid3D& grid, const CscMat& local_a, const CscMat& local_b,
              bool sparse_comm, Phases phases);

  /// Stage s's (A view, B view); call with s = 0, 1, ..., q-1 in turn.
  std::pair<CscView, CscView> next(int s);

 private:
  std::optional<obs::PhaseSpan> phase(const char* name);
  void post_a(int s);
  void post_b(int s);
  CscView wait_a();
  CscView wait_sparse_a(int s, Index ncols);
  CscView wait_b();

  vmpi::Comm& row_comm_;
  vmpi::Comm& col_comm_;
  obs::Recorder& rec_;
  const CscMat& local_a_;
  const CscMat& local_b_;
  bool sparse_;
  Phases phases_;
  int stages_;
  int next_stage_ = 0;
  vmpi::PendingBcast a_bcast_;
  vmpi::PendingSparse a_exchange_;
  vmpi::PendingBcast b_bcast_;
};

}  // namespace casp
