// Closed-form per-step costs of BatchedSUMMA3D — Tables II and III turned
// into code.
//
// Given problem statistics (nnz(A), nnz(B), flops, nnz(C), optionally the
// measured unmerged-intermediate volume) and a configuration (p, l, b), the
// model predicts the time of each of the seven steps on a Machine. The
// formulas are exactly the paper's:
//
//   step            latency (total)          bandwidth (total)    compute
//   A-Bcast         a*b*sqrt(p/l)*lg(p/l)    B*b*nnzA/sqrt(pl)    —
//   B-Bcast         a*b*sqrt(p/l)*lg(p/l)    B*nnzB/sqrt(pl)      —
//   AllToAll-Fiber  a*b*l                    B*vol/p              —
//   Symbolic        bcast terms with b=1     as bcasts            flops/p (cheap)
//   Local-Multiply  —                        —                    flops/p
//   Merge-Layer     —                        —                    vol/p (hash) or vol/p*lg(q) (heap)
//   Merge-Fiber     —                        —                    volF/p (hash) or volF/p*lg(l) (heap)
//
// where vol = the unmerged intermediate nonzeros (<= flops; the paper's
// bandwidth bound uses flops and notes Sum_k nnz(D^(k)) is tighter — pass
// `unmerged_nnz` from Symbolic3D to use the tight value).
#pragma once

#include <map>
#include <string>

#include "model/machine.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/steps.hpp"

namespace casp {

/// Global problem statistics driving the model.
struct ProblemStats {
  Index nnz_a = 0;
  Index nnz_b = 0;
  Index flops = 0;   ///< scalar multiplications in A*B
  Index nnz_c = 0;   ///< merged output nonzeros
  /// Sum over processes/stages of unmerged intermediate nonzeros; defaults
  /// to flops when unknown (the loose Table II bound).
  Index unmerged_nnz = 0;
  /// Load imbalance factor: max-per-process / average-per-process for the
  /// unmerged output (1.0 = perfectly balanced). Scales the batch count.
  double imbalance = 1.0;
  /// Fraction of A-block bytes the sparse exchange actually ships
  /// (shipped / logical from the traffic ledger, or an estimate). Only read
  /// when ModelConfig::sparse_comm is set; 1.0 = no savings.
  double a_need_fraction = 1.0;

  Index effective_unmerged() const {
    return unmerged_nnz > 0 ? unmerged_nnz : flops;
  }
};

/// Extract ProblemStats by analyzing the actual matrices (serial; use at
/// bench scale). Computes flops, nnz_c and the unmerged volume for the
/// given layer count.
ProblemStats analyze_problem(const CscMat& a, const CscMat& b);

/// Grid/batch configuration to evaluate.
struct ModelConfig {
  Index p = 1;   ///< total processes
  Index l = 1;   ///< layers
  Index b = 1;   ///< batches
  bool hash_kernels = true;  ///< this paper's kernels vs prior heap kernels
  /// Model the sparsity-aware A exchange (summa/sparse_comm.hpp) instead of
  /// the dense A-Bcast: the tree broadcast's lg(q) latency becomes the
  /// request+reply round's 2 messages per peer, and the bandwidth term is
  /// scaled by ProblemStats::a_need_fraction.
  bool sparse_comm = false;
};

/// Per-step predicted seconds, keyed by the steps:: names.
using StepSeconds = std::map<std::string, double>;

/// Predict every step of BatchedSUMMA3D. All costs are per-process
/// critical-path times for the whole multiplication (all batches).
StepSeconds predict_steps(const Machine& machine, const ProblemStats& stats,
                          const ModelConfig& config);

/// Sum of all step times.
double total_seconds(const StepSeconds& steps);

/// Eq. 2 / Alg. 3 line 12: predicted batch count for aggregate memory M
/// (bytes) on p processes with l layers. Mirrors Symbolic3D but uses the
/// model's statistics instead of a distributed run. Throws MemoryError if
/// inputs alone do not fit.
Index predict_batches(const ProblemStats& stats, Index p, Bytes total_memory);

/// Pretty one-line rendering ("A-Bcast=1.23s B-Bcast=0.04s ...").
std::string format_steps(const StepSeconds& steps);

}  // namespace casp
