#include "ckpt/snapshot.hpp"

#include <cstring>
#include <ostream>
#include <utility>

#include "common/hash.hpp"
#include "sparse/serialize.hpp"

namespace casp::ckpt {
namespace {

// "casp.ckpt.v2" on the wire: 8 magic bytes carrying the version digit.
constexpr char kMagic[8] = {'C', 'A', 'S', 'P', 'C', 'K', 'P', '2'};
constexpr std::size_t kMagicSize = sizeof(kMagic);
constexpr std::size_t kWordSize = sizeof(std::uint64_t);

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

void Snapshot::set_bytes(const std::string& name,
                         std::vector<std::byte> data) {
  auto owned = std::make_shared<const std::vector<std::byte>>(std::move(data));
  const std::span<const std::byte> view(*owned);
  sections_[name] = Section{std::move(owned), view, nullptr};
}

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

void Snapshot::borrow_matrix(const std::string& name, const CscMat& m) {
  sections_[name] = Section{nullptr, {}, &m};
}

std::span<const std::byte> Snapshot::bytes(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end())
    throw CkptError("snapshot has no section '" + name + "'");
  if (it->second.matrix != nullptr)
    throw CkptError("snapshot section '" + name + "' is a matrix");
  return it->second.bytes;
}

std::uint64_t Snapshot::u64(const std::string& name) const {
  const std::span<const std::byte> buf = bytes(name);
  if (buf.size() != sizeof(std::uint64_t))
    throw CkptError("snapshot section '" + name + "' is not a u64");
  std::uint64_t v = 0;
  std::memcpy(&v, buf.data(), sizeof(v));
  return v;
}

std::string Snapshot::string(const std::string& name) const {
  const std::span<const std::byte> buf = bytes(name);
  std::string out(buf.size(), '\0');
  if (!buf.empty()) std::memcpy(out.data(), buf.data(), buf.size());
  return out;
}

CscMat Snapshot::matrix(const std::string& name) const {
  auto it = sections_.find(name);
  if (it != sections_.end() && it->second.matrix != nullptr)
    return *it->second.matrix;
  const std::span<const std::byte> buf = bytes(name);
  try {
    // A copy: sections sit at arbitrary offsets of the file image, and the
    // unpacker reads 8-byte-aligned arrays.
    return unpack_csc(std::vector<std::byte>(buf.begin(), buf.end()));
  } catch (const std::exception& e) {
    throw CkptError("snapshot section '" + name +
                    "' is not a valid matrix: " + e.what());
  }
}

void Snapshot::inherit(const Snapshot& older) {
  sections_.insert(older.sections_.begin(), older.sections_.end());
}

std::size_t Snapshot::encoded_size() const {
  std::size_t total = kMagicSize + 2 * kWordSize;
  for (const auto& [name, s] : sections_)
    total += 2 * kWordSize + name.size() +
             (s.matrix != nullptr
                  ? static_cast<std::size_t>(packed_size(*s.matrix))
                  : s.bytes.size());
  return total;
}

std::uint64_t Snapshot::encode(
    const std::function<void(const void*, std::size_t)>& put) const {
  Xxh64 hash;
  const auto emit = [&](const void* data, std::size_t size) {
    if (size == 0) return;
    hash.update(data, size);
    put(data, size);
  };
  const auto emit_u64 = [&](std::uint64_t v) { emit(&v, sizeof(v)); };
  emit(kMagic, kMagicSize);
  emit_u64(sections_.size());
  for (const auto& [name, s] : sections_) {
    emit_u64(name.size());
    emit(name.data(), name.size());
    if (s.matrix != nullptr) {
      emit_u64(static_cast<std::uint64_t>(packed_size(*s.matrix)));
      put_csc_image(*s.matrix, emit);
    } else {
      emit_u64(s.bytes.size());
      emit(s.bytes.data(), s.bytes.size());
    }
  }
  const std::uint64_t sum = hash.digest();
  put(&sum, sizeof(sum));
  return sum;
}

std::vector<std::byte> Snapshot::serialize() const {
  std::vector<std::byte> out(encoded_size());
  std::size_t at = 0;
  encode([&](const void* data, std::size_t size) {
    std::memcpy(out.data() + at, data, size);
    at += size;
  });
  return out;
}

std::uint64_t Snapshot::write(std::ostream& out) const {
  static_assert(sizeof(char) == sizeof(std::byte));
  return encode([&out](const void* data, std::size_t size) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  });
}

std::uint64_t Snapshot::checksum_of(std::span<const std::byte> buf) {
  std::uint64_t sum = 0;
  if (buf.size() >= kWordSize)
    std::memcpy(&sum, buf.data() + buf.size() - kWordSize, kWordSize);
  return sum;
}

Snapshot Snapshot::deserialize(std::vector<std::byte> buf_in) {
  if (buf_in.size() < kMagicSize + 2 * kWordSize)
    throw CkptError("snapshot too small to be valid");
  if (std::memcmp(buf_in.data(), kMagic, kMagicSize) != 0)
    throw CkptError("snapshot has bad magic (unknown format or version)");

  const std::size_t body = buf_in.size() - kWordSize;
  if (xxh64(buf_in.data(), body) != checksum_of(buf_in))
    throw CkptError("snapshot checksum mismatch (torn or corrupted write)");

  const auto buf =
      std::make_shared<const std::vector<std::byte>>(std::move(buf_in));
  Reader r(buf->data(), body);
  r.read_span(kMagicSize, "magic");
  const std::uint64_t count = r.read_u64("section count");
  // Each section costs at least two length words; anything claiming more
  // sections than the buffer could hold is corrupt despite the checksum.
  if (count > body / (2 * kWordSize))
    throw CkptError("snapshot section count is implausible");

  Snapshot snap;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = r.read_u64("section name length");
    const std::byte* name_ptr = r.read_span(name_len, "section name");
    std::string name(static_cast<std::size_t>(name_len), '\0');
    if (name_len > 0) std::memcpy(name.data(), name_ptr, name.size());
    // The encoder writes each name once; a repeat would silently drop the
    // earlier section.
    if (snap.has(name))
      throw CkptError("snapshot repeats section '" + name + "'");
    const std::uint64_t data_len = r.read_u64("section payload length");
    const std::byte* data_ptr = r.read_span(data_len, "section payload");
    snap.sections_[name] = Section{
        buf, {data_ptr, static_cast<std::size_t>(data_len)}, nullptr};
  }
  if (r.remaining() != 0)
    throw CkptError("snapshot has trailing bytes after last section");
  return snap;
}

}  // namespace casp::ckpt
