// Checkpoint snapshot format (`casp.ckpt.v1`).
//
// The paper's flagship workloads are hours-long iterative jobs
// (HipMCL-style clustering over BatchedSUMMA3D); a rank crash that forfeits
// every completed iteration makes the fault-injection layer a diagnostic,
// not a guarantee. A Snapshot is the unit of durable state: a named-section
// binary container (iteration counters, packed CSC matrices, batch
// metadata) serialized with a magic/version header and a trailing FNV-1a
// checksum. Deserialization is strict — bad magic, torn tails, section
// lengths that overrun the buffer, a repeated section name, or a checksum
// mismatch all throw
// CkptError, which is how the generation store (checkpoint.hpp) tells a
// valid snapshot from a torn or corrupted one and falls back a generation.
//
// The format is host-endian: snapshots are rank-local scratch a restarted
// job reads on the same machine, not an interchange format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sparse/csc_mat.hpp"

namespace casp::ckpt {

/// A snapshot failed to load: torn write, checksum mismatch, unknown
/// version, or a section that is absent / malformed. Recoverable by
/// construction — the store falls back to the previous generation.
class CkptError : public std::runtime_error {
 public:
  explicit CkptError(const std::string& what) : std::runtime_error(what) {}
};

/// One checkpoint: an ordered set of named byte sections with typed
/// helpers. Section names starting with "__" are reserved for the store
/// (the job-identity stamp lives in "__job").
class Snapshot {
 public:
  void set_bytes(const std::string& name, std::vector<std::byte> data) {
    sections_[name] = std::move(data);
  }
  void set_u64(const std::string& name, std::uint64_t v);
  void set_string(const std::string& name, const std::string& s);
  void set_matrix(const std::string& name, const CscMat& m);

  /// Any trivially-copyable record array (batch metadata, iteration stats).
  template <typename T>
  void set_array(const std::string& name, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> buf(data.size() * sizeof(T));
    if (!buf.empty()) std::memcpy(buf.data(), data.data(), buf.size());
    set_bytes(name, std::move(buf));
  }

  bool has(const std::string& name) const {
    return sections_.find(name) != sections_.end();
  }
  /// Throws CkptError when the section is absent.
  const std::vector<std::byte>& bytes(const std::string& name) const;
  std::uint64_t u64(const std::string& name) const;
  std::string string(const std::string& name) const;
  CscMat matrix(const std::string& name) const;

  template <typename T>
  std::vector<T> array(const std::string& name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte>& buf = bytes(name);
    if (buf.size() % sizeof(T) != 0)
      throw CkptError("snapshot section '" + name +
                      "' is not a whole number of records");
    std::vector<T> out(buf.size() / sizeof(T));
    if (!buf.empty()) std::memcpy(out.data(), buf.data(), buf.size());
    return out;
  }

  /// Serialize: magic, section count, (name, payload) pairs, trailing
  /// FNV-1a64 checksum over everything before it.
  std::vector<std::byte> serialize() const;
  /// Strict parse of serialize()'s output. All size arithmetic is
  /// overflow-safe (lengths are validated against the remaining buffer
  /// before any offset moves); any inconsistency throws CkptError.
  static Snapshot deserialize(const std::vector<std::byte>& buf);

 private:
  std::map<std::string, std::vector<std::byte>> sections_;
};

}  // namespace casp::ckpt
