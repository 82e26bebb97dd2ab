// Admission control for the job service: decide, before a job is queued,
// whether its declared memory budget can possibly hold the multiplication.
//
// The decision reuses the paper's own machinery. A scratch virtual job
// (fault-free, outside the resident pool) distributes the already
// materialized inputs on the job's grid and runs the Algorithm 3 symbolic
// pass with an unlimited budget, which yields the per-process maxima
// (maxnnzA, maxnnzB, maxnnzC) that Eq. (2) needs:
//
//   b = r * maxnnzC / (M/p - r * (maxnnzA + maxnnzB))
//
// The run's own Eq. (2) arithmetic (eq2_batches, real-valued M/p) is then
// applied serially here, so admission's b is the b the run picks and a
// rejection can name its evidence (share, input bytes, the non-positive
// denominator) instead of surfacing as a MemoryError thrown mid-run on
// some rank. The scratch ranks' results are kept: a SpGEMM or triangle run
// on the same grid hands rank r's to batched_summa3d, which then skips its
// own Symbolic3D (DESIGN.md §5i).
#pragma once

#include <string>
#include <vector>

#include "obs/job_report.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/symbolic3d.hpp"
#include "svc/jobspec.hpp"

namespace casp::svc {

/// Eq. (2) verdict for one job. `admission` carries the numbers (recorded
/// in the job report either way); `reason` is the structured rejection
/// text, empty when the job fits.
struct AdmissionEstimate {
  obs::JobAdmission admission;
  std::string reason;
  /// Each scratch rank's Symbolic3D result, indexed by rank, for the
  /// spec's (ranks, layers) grid and an unlimited budget.
  std::vector<SymbolicResult> symbolic;
  bool fits() const { return admission.fits; }
};

/// Run the symbolic estimate for `spec` on its materialized operands.
/// `a`/`b` are the global operands (b may alias a for square self-products;
/// for MCL the operand is the similarity matrix itself, the per-iteration
/// budget gate the service enforces). Runs `spec.ranks` scratch ranks;
/// never throws MemoryError — an impossible budget comes back as
/// fits == false with the reason filled in.
AdmissionEstimate estimate_admission(const JobSpec& spec, const CscMat& a,
                                     const CscMat& b);

/// The memory the tenant's quota is charged while the job is resident:
/// the declared budget when one was given, otherwise the symbolic
/// estimate's r * (maxnnzA + maxnnzB + maxnnzC) over all ranks.
Bytes reservation_bytes(const JobSpec& spec, const obs::JobAdmission& a);

}  // namespace casp::svc
