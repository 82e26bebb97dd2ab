// Correctness oracle: order-independent fingerprints of sparse products,
// keyed by global coordinates.
//
// Each rank folds its batch pieces into a Fingerprint as they are emitted
// (row/column offsets from BatchInfo make the keys global), the per-rank
// fingerprints are summed, and the sum is compared with the fingerprint of
// the serial reference product. The pattern part is exact (a sum of 64-bit
// hashes of (row, col)); the value part is a hash-weighted sum compared
// with a relative tolerance, since the distributed merge adds partial
// products in a different order than the reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/csc_mat.hpp"

namespace e2e {

struct Fingerprint {
  std::uint64_t nnz = 0;
  std::uint64_t pattern = 0;  ///< sum of hash(row, col), mod 2^64
  double weighted = 0.0;      ///< sum of val * w(row, col), w in [1, 2)
  double magnitude = 0.0;     ///< sum of |val| * w(row, col)

  /// Fold in `piece`, whose local (0, 0) is global (row0, col0).
  void add(const casp::CscMat& piece, casp::Index row0, casp::Index col0);
  Fingerprint& operator+=(const Fingerprint& other);
};

/// Empty when `got` matches `want`, else a one-line reason.
std::string compare(const Fingerprint& got, const Fingerprint& want);

/// Empty when the two cluster assignments induce the same partition
/// (cluster ids are arbitrary), else a one-line reason.
std::string compare_partitions(const std::vector<casp::Index>& got,
                               const std::vector<casp::Index>& want);

/// P A P^T for a random permutation P drawn from `seed` that keeps every
/// index inside its part of `parts` contiguous parts (part_low); parts = 1
/// draws a uniformly random permutation.
casp::CscMat permute_symmetric(const casp::CscMat& a, std::uint64_t seed,
                               casp::Index parts = 1);

}  // namespace e2e
