#include "svc/admission.hpp"

#include <sstream>
#include <tuple>

#include "grid/dist.hpp"
#include "grid/grid3d.hpp"
#include "summa/symbolic3d.hpp"
#include "vmpi/runtime.hpp"

namespace casp::svc {

AdmissionEstimate estimate_admission(const JobSpec& spec, const CscMat& a,
                                     const CscMat& b) {
  AdmissionEstimate est;

  // Scratch symbolic job: explicitly fault-free (admission must never be
  // perturbed by a tenant's chaos plan or by CASP_VMPI_FAULTS) and with an
  // unlimited budget so symbolic3d reports the maxima instead of throwing.
  // Every rank keeps its result: the run on this grid reuses them.
  est.symbolic.resize(static_cast<std::size_t>(spec.ranks));
  vmpi::RunOptions scratch;
  scratch.faults = vmpi::FaultPlan{};
  vmpi::run(
      spec.ranks,
      [&](vmpi::Comm& world) {
        Grid3D grid(world, spec.layers);
        DistMat3D da = distribute_a_style(grid, a);
        DistMat3D db = distribute_b_style(grid, b);
        // The layout batched_summa3d runs on, so Eq. (2) sizes that one.
        if (spec.layers > 1) std::tie(da, db) = rebalance_inner(grid, da, db);
        SummaOptions opts = spec.summa_options();
        // A triangle count's operands are (L, U) and its product is masked
        // by L (count_triangles_lu), so Eq. (2) sizes that product.
        if (spec.op == JobOp::kTriangleCount) opts.mask = &a;
        est.symbolic[static_cast<std::size_t>(world.rank())] =
            symbolic3d(grid, da.local, db.local, /*total_memory=*/0, opts);
      },
      scratch);
  const SymbolicResult& sym = est.symbolic.front();

  obs::JobAdmission& adm = est.admission;
  adm.max_nnz_a = sym.max_nnz_a;
  adm.max_nnz_b = sym.max_nnz_b;
  adm.max_nnz_c = sym.max_nnz_c;

  const Bytes r = kBytesPerNonzero;
  adm.input_bytes =
      r * static_cast<Bytes>(sym.max_nnz_a + sym.max_nnz_b);
  if (spec.memory_bytes == 0) {
    // Unlimited budget: Eq. (2) degenerates to b = 1.
    adm.fits = true;
    adm.batches = 1;
    adm.per_process_share = 0;
    return est;
  }

  adm.per_process_share = spec.memory_bytes / static_cast<Bytes>(spec.ranks);
  const Bytes unmerged_bytes = r * static_cast<Bytes>(sym.max_nnz_c);
  adm.batches = eq2_batches(spec.memory_bytes, spec.ranks,
                            static_cast<double>(adm.input_bytes),
                            static_cast<double>(unmerged_bytes));
  if (adm.batches == 0) {
    // Eq. (2) denominator M/p - r*(maxnnzA + maxnnzB) <= 0: the inputs
    // alone overflow the most loaded process; no batch count helps.
    adm.fits = false;
    std::ostringstream os;
    os << "admission: Eq. (2) denominator non-positive — per-process share "
       << adm.per_process_share << " B (M=" << spec.memory_bytes << " B / p="
       << spec.ranks << ") <= input footprint " << adm.input_bytes
       << " B (r=" << r << " B/nnz * (maxnnzA=" << adm.max_nnz_a
       << " + maxnnzB=" << adm.max_nnz_b
       << ")); batching cannot make the inputs fit";
    est.reason = os.str();
    return est;
  }

  adm.fits = true;
  return est;
}

Bytes reservation_bytes(const JobSpec& spec, const obs::JobAdmission& a) {
  if (spec.memory_bytes > 0) return spec.memory_bytes;
  const Bytes r = kBytesPerNonzero;
  return static_cast<Bytes>(spec.ranks) * r *
         static_cast<Bytes>(a.max_nnz_a + a.max_nnz_b + a.max_nnz_c);
}

}  // namespace casp::svc
