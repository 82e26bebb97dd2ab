// Symbolic local SpGEMM: count output nonzeros without computing values.
//
// LocalSymbolic in Algorithm 3. Much cheaper than Local-Multiply (no value
// arithmetic, no output materialization); Symbolic3D calls it once per
// SUMMA stage to compute the per-process unmerged-output nnz that drives
// the batch count b (Eq. 2 / Alg. 3 line 12).
#pragma once

#include <vector>

#include "sparse/csc_ref.hpp"

namespace casp {

/// Number of nonzeros in each column of A*B after merging duplicates
/// within the column, counted in a row accumulator (kernels/accumulator.hpp)
/// that keeps flags only. Inputs may be unsorted. Operands are non-owning
/// refs (implicitly convertible from CscMat or CscView). With `mask`, the
/// counts are of (A*B) .* pattern(mask), the product the masked
/// local_spgemm holds (same mask contract).
std::vector<Index> symbolic_column_nnz(const CscConstRef& a,
                                       const CscConstRef& b,
                                       const CscConstRef* mask = nullptr);

/// Total nnz(A*B) (merged). Equals the sum of symbolic_column_nnz.
Index symbolic_nnz(const CscConstRef& a, const CscConstRef& b);

}  // namespace casp
