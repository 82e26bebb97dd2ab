#include "ckpt/snapshot.hpp"

#include <cstring>
#include <utility>

#include "common/hash.hpp"
#include "sparse/serialize.hpp"

namespace casp::ckpt {
namespace {

// "casp.ckpt.v1" on the wire: 8 magic bytes carrying the version digit.
constexpr char kMagic[8] = {'C', 'A', 'S', 'P', 'C', 'K', 'P', '1'};
constexpr std::size_t kMagicSize = sizeof(kMagic);
constexpr std::size_t kChecksumSize = sizeof(std::uint64_t);

// resize + memcpy rather than vector::insert: GCC 12 reports a false
// -Wstringop-overflow for the inlined insert.
void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t size) {
  if (size == 0) return;
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, data, size);
}

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  append_bytes(out, &v, sizeof(v));
}

/// Cursor over a byte buffer whose reads are bounds-checked before any
/// offset arithmetic, so hostile section lengths cannot overflow.
class Reader {
 public:
  Reader(const std::byte* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }

  std::uint64_t read_u64(const char* what) {
    if (remaining() < sizeof(std::uint64_t))
      throw CkptError(std::string("snapshot truncated reading ") + what);
    std::uint64_t v = 0;
    std::memcpy(&v, data_ + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

  const std::byte* read_span(std::uint64_t len, const char* what) {
    if (len > remaining())
      throw CkptError(std::string("snapshot truncated reading ") + what);
    const std::byte* p = data_ + pos_;
    pos_ += static_cast<std::size_t>(len);
    return p;
  }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace

void Snapshot::set_u64(const std::string& name, std::uint64_t v) {
  std::vector<std::byte> buf(sizeof(v));
  std::memcpy(buf.data(), &v, sizeof(v));
  set_bytes(name, std::move(buf));
}

void Snapshot::set_string(const std::string& name, const std::string& s) {
  std::vector<std::byte> buf(s.size());
  if (!buf.empty()) std::memcpy(buf.data(), s.data(), buf.size());
  set_bytes(name, std::move(buf));
}

void Snapshot::set_matrix(const std::string& name, const CscMat& m) {
  set_bytes(name, pack_csc(m));
}

const std::vector<std::byte>& Snapshot::bytes(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end())
    throw CkptError("snapshot has no section '" + name + "'");
  return it->second;
}

std::uint64_t Snapshot::u64(const std::string& name) const {
  const std::vector<std::byte>& buf = bytes(name);
  if (buf.size() != sizeof(std::uint64_t))
    throw CkptError("snapshot section '" + name + "' is not a u64");
  std::uint64_t v = 0;
  std::memcpy(&v, buf.data(), sizeof(v));
  return v;
}

std::string Snapshot::string(const std::string& name) const {
  const std::vector<std::byte>& buf = bytes(name);
  std::string out(buf.size(), '\0');
  if (!buf.empty()) std::memcpy(out.data(), buf.data(), buf.size());
  return out;
}

CscMat Snapshot::matrix(const std::string& name) const {
  const std::vector<std::byte>& buf = bytes(name);
  try {
    return unpack_csc(buf);
  } catch (const std::exception& e) {
    throw CkptError("snapshot section '" + name +
                    "' is not a valid matrix: " + e.what());
  }
}

std::vector<std::byte> Snapshot::serialize() const {
  std::vector<std::byte> out;
  std::size_t total = kMagicSize + sizeof(std::uint64_t) + kChecksumSize;
  for (const auto& [name, data] : sections_)
    total += 2 * sizeof(std::uint64_t) + name.size() + data.size();
  out.reserve(total);

  append_bytes(out, kMagic, kMagicSize);
  append_u64(out, sections_.size());
  for (const auto& [name, data] : sections_) {
    append_u64(out, name.size());
    append_bytes(out, name.data(), name.size());
    append_u64(out, data.size());
    append_bytes(out, data.data(), data.size());
  }
  append_u64(out, fnv1a64(out.data(), out.size()));
  return out;
}

Snapshot Snapshot::deserialize(const std::vector<std::byte>& buf) {
  if (buf.size() < kMagicSize + sizeof(std::uint64_t) + kChecksumSize)
    throw CkptError("snapshot too small to be valid");
  if (std::memcmp(buf.data(), kMagic, kMagicSize) != 0)
    throw CkptError("snapshot has bad magic (unknown format or version)");

  const std::size_t body = buf.size() - kChecksumSize;
  std::uint64_t stored = 0;
  std::memcpy(&stored, buf.data() + body, kChecksumSize);
  if (fnv1a64(buf.data(), body) != stored)
    throw CkptError("snapshot checksum mismatch (torn or corrupted write)");

  Reader r(buf.data(), body);
  r.read_span(kMagicSize, "magic");
  const std::uint64_t count = r.read_u64("section count");
  // Each section costs at least two length words; anything claiming more
  // sections than the buffer could hold is corrupt despite the checksum.
  if (count > body / (2 * sizeof(std::uint64_t)))
    throw CkptError("snapshot section count is implausible");

  Snapshot snap;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = r.read_u64("section name length");
    const std::byte* name_ptr = r.read_span(name_len, "section name");
    std::string name(static_cast<std::size_t>(name_len), '\0');
    if (name_len > 0) std::memcpy(name.data(), name_ptr, name.size());
    // serialize() writes each name once; a repeat would silently drop the
    // earlier section.
    if (snap.has(name))
      throw CkptError("snapshot repeats section '" + name + "'");
    const std::uint64_t data_len = r.read_u64("section payload length");
    const std::byte* data_ptr = r.read_span(data_len, "section payload");
    snap.set_bytes(name, std::vector<std::byte>(data_ptr, data_ptr + data_len));
  }
  if (r.remaining() != 0)
    throw CkptError("snapshot has trailing bytes after last section");
  return snap;
}

}  // namespace casp::ckpt
