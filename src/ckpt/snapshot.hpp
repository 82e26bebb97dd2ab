// Checkpoint snapshot format (`casp.ckpt.v2`).
//
// The paper's flagship workloads are hours-long iterative jobs
// (HipMCL-style clustering over BatchedSUMMA3D); a rank crash that forfeits
// every completed iteration makes the fault-injection layer a diagnostic,
// not a guarantee. A Snapshot is the unit of durable state: a named-section
// binary container (iteration counters, packed CSC matrices, batch
// metadata) encoded behind a magic/version header and closed by a trailing
// XXH64 checksum (common/hash.hpp). There is one encoder: it streams each
// section — a matrix section as its CSC header and three arrays, straight
// from the matrix's buffers — into a sink while hashing, so a checkpoint
// file is written without first packing or concatenating anything, and
// serialize() is the same encoder with a memory sink. Deserialization is
// strict — bad magic (including a `casp.ckpt.v1` file), torn tails,
// section lengths that overrun the buffer, a repeated section name, or a
// checksum mismatch all throw CkptError, which is how the generation store
// (checkpoint.hpp) tells a valid snapshot from a torn or corrupted one and
// falls back a generation.
//
// The format is host-endian: snapshots are rank-local scratch a restarted
// job reads on the same machine, not an interchange format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
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

/// One checkpoint: an ordered set of named sections with typed helpers.
/// Section names starting with "__" are reserved for the store (the
/// job-identity stamp and the parent link). Copies share their sections'
/// storage, so a copy costs one map of handles, never the bytes.
class Snapshot {
 public:
  void set_bytes(const std::string& name, std::vector<std::byte> data);
  void set_u64(const std::string& name, std::uint64_t v);
  void set_string(const std::string& name, const std::string& s);
  /// A matrix section that borrows `m`: it is encoded from m's own arrays,
  /// so `m` must outlive every serialize()/write() of this snapshot.
  void borrow_matrix(const std::string& name, const CscMat& m);

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
  /// The typed readers throw CkptError when the section is absent or
  /// malformed.
  std::uint64_t u64(const std::string& name) const;
  std::string string(const std::string& name) const;
  CscMat matrix(const std::string& name) const;

  template <typename T>
  std::vector<T> array(const std::string& name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::span<const std::byte> buf = bytes(name);
    if (buf.size() % sizeof(T) != 0)
      throw CkptError("snapshot section '" + name +
                      "' is not a whole number of records");
    std::vector<T> out(buf.size() / sizeof(T));
    if (!buf.empty()) std::memcpy(out.data(), buf.data(), buf.size());
    return out;
  }

  /// Adds every section of `older` this snapshot does not hold itself:
  /// how the store resolves a delta generation against its parent.
  void inherit(const Snapshot& older);

  /// Encoded size in bytes, checksum included.
  std::size_t encoded_size() const;
  /// Encode: magic, section count, (name, payload) pairs, trailing XXH64
  /// checksum over everything before it.
  std::vector<std::byte> serialize() const;
  /// The same encoding streamed to `out`; returns the trailing checksum.
  /// The caller checks the stream's state.
  std::uint64_t write(std::ostream& out) const;
  /// Strict parse of serialize()'s output. All size arithmetic is
  /// overflow-safe (lengths are validated against the remaining buffer
  /// before any offset moves); any inconsistency throws CkptError. The
  /// parsed sections share `buf`'s storage.
  static Snapshot deserialize(std::vector<std::byte> buf);
  /// The trailing checksum of a buffer deserialize() accepted.
  static std::uint64_t checksum_of(std::span<const std::byte> buf);

 private:
  /// A byte section views storage `owner` keeps alive; a matrix section
  /// is encoded from the borrowed `matrix`.
  struct Section {
    std::shared_ptr<const void> owner;
    std::span<const std::byte> bytes;
    const CscMat* matrix = nullptr;
  };

  std::span<const std::byte> bytes(const std::string& name) const;
  std::uint64_t encode(
      const std::function<void(const void*, std::size_t)>& put) const;

  std::map<std::string, Section> sections_;
};

}  // namespace casp::ckpt
