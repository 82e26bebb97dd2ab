// Shared non-cryptographic hashing. One FNV-1a64 implementation serves both
// the checkpoint container checksum ("casp.ckpt.v1" trailing word) and the
// debug-mode per-message transport checksum in vmpi::Comm, so a snapshot
// written on one layer and a payload verified on another agree on what
// "checksummed" means.
#pragma once

#include <cstddef>
#include <cstdint>

namespace casp {

/// FNV-1a 64-bit offset basis: the hash of the empty range.
inline constexpr std::uint64_t kFnv1a64Basis = 1469598103934665603ull;

/// FNV-1a 64-bit over a raw byte range. Deterministic across platforms for
/// the same bytes; NOT collision-resistant against an adversary — it guards
/// against torn writes and injected bit flips, not tampering. Passing a
/// previous result as `hash` continues it, so several ranges hash as their
/// concatenation.
inline std::uint64_t fnv1a64(const std::byte* data, std::size_t size,
                             std::uint64_t hash = kFnv1a64Basis) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint64_t>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace casp
