// Shared non-cryptographic checksum. One XXH64 implementation (written from
// the published xxHash specification, no library) serves both the
// checkpoint container's trailing checksum ("casp.ckpt.v2") and the
// debug-mode per-message frame checksum in vmpi::Comm, so a snapshot written
// on one layer and a payload verified on another agree on what
// "checksummed" means. It consumes eight bytes per step, so checksumming a
// snapshot costs about as much as copying it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace casp {

/// Streaming XXH64: update() any number of byte ranges, then digest() gives
/// the hash of their concatenation, equal to xxh64() over the whole. Not
/// collision-resistant against an adversary: it guards against torn writes
/// and injected bit flips, not tampering.
class Xxh64 {
 public:
  explicit Xxh64(std::uint64_t seed = 0)
      : acc_{seed + kP1 + kP2, seed + kP2, seed, seed - kP1}, seed_(seed) {}

  void update(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += size;
    if (buffered_ + size < kStripe) {
      if (size > 0) std::memcpy(buf_ + buffered_, p, size);
      buffered_ += size;
      return;
    }
    if (buffered_ > 0) {
      const std::size_t fill = kStripe - buffered_;
      std::memcpy(buf_ + buffered_, p, fill);
      stripe(buf_);
      p += fill;
      size -= fill;
      buffered_ = 0;
    }
    for (; size >= kStripe; p += kStripe, size -= kStripe) stripe(p);
    if (size > 0) std::memcpy(buf_, p, size);
    buffered_ = size;
  }

  std::uint64_t digest() const {
    std::uint64_t h;
    if (total_ >= kStripe) {
      h = std::rotl(acc_[0], 1) + std::rotl(acc_[1], 7) +
          std::rotl(acc_[2], 12) + std::rotl(acc_[3], 18);
      for (const std::uint64_t v : acc_) h = (h ^ round(0, v)) * kP1 + kP4;
    } else {
      h = seed_ + kP5;
    }
    h += total_;
    const unsigned char* p = buf_;
    std::size_t left = buffered_;
    for (; left >= 8; p += 8, left -= 8)
      h = std::rotl(h ^ round(0, read64(p)), 27) * kP1 + kP4;
    if (left >= 4) {
      h = std::rotl(h ^ (read32(p) * kP1), 23) * kP2 + kP3;
      p += 4;
      left -= 4;
    }
    for (; left > 0; ++p, --left) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;
  static constexpr std::size_t kStripe = 32;

  // The specification reads lanes little-endian.
  static std::uint64_t read64(const unsigned char* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
      v = __builtin_bswap64(v);
    return v;
  }
  static std::uint64_t read32(const unsigned char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
      v = __builtin_bswap32(v);
    return v;
  }
  static std::uint64_t round(std::uint64_t acc, std::uint64_t lane) {
    return std::rotl(acc + lane * kP2, 31) * kP1;
  }
  void stripe(const unsigned char* p) {
    for (int i = 0; i < 4; ++i) acc_[i] = round(acc_[i], read64(p + 8 * i));
  }

  std::uint64_t acc_[4];
  std::uint64_t seed_;
  std::uint64_t total_ = 0;
  unsigned char buf_[kStripe] = {};
  std::size_t buffered_ = 0;
};

/// One-shot XXH64 of a byte range.
inline std::uint64_t xxh64(const void* data, std::size_t size,
                           std::uint64_t seed = 0) {
  Xxh64 h(seed);
  h.update(data, size);
  return h.digest();
}

}  // namespace casp
