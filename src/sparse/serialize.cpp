#include "sparse/serialize.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/error.hpp"

namespace casp {

namespace {
struct Header {
  Index nrows;
  Index ncols;
  Index nnz;
};

/// Byte offsets within one wire image [header | colptr | rowids | vals] of
/// `ncols` columns and `nnz` entries: the one statement of the layout.
/// Every array starts 8-aligned (24-byte header, 8-byte elements), so an
/// image starting aligned can be read in place.
struct ImageLayout {
  ImageLayout(Index ncols, Index nnz)
      : rowids(colptr + (static_cast<std::size_t>(ncols) + 1) * sizeof(Index)),
        vals(rowids + static_cast<std::size_t>(nnz) * sizeof(Index)),
        size(vals + static_cast<std::size_t>(nnz) * sizeof(Value)) {}
  static constexpr std::size_t colptr = sizeof(Header);
  std::size_t rowids, vals, size;
};

// resize + memcpy rather than vector::insert: GCC 12 reports a false
// -Wstringop-overflow for the inlined insert.
template <typename T>
void append(std::vector<std::byte>& buf, const T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (count == 0) return;
  const std::size_t at = buf.size();
  buf.resize(at + count * sizeof(T));
  std::memcpy(buf.data() + at, data, count * sizeof(T));
}
}  // namespace

Bytes packed_size(const CscMat& mat) {
  return ImageLayout(mat.ncols(), mat.nnz()).size;
}

void put_csc_image(const CscMat& mat,
                   const std::function<void(const void*, std::size_t)>& put) {
  const Header h{mat.nrows(), mat.ncols(), mat.nnz()};
  put(&h, sizeof(h));
  put(mat.colptr().data(), mat.colptr().size() * sizeof(Index));
  put(mat.rowids().data(), mat.rowids().size() * sizeof(Index));
  put(mat.vals().data(), mat.vals().size() * sizeof(Value));
}

std::vector<std::byte> pack_csc(const CscMat& mat) {
  const ImageLayout at(mat.ncols(), mat.nnz());
  std::vector<std::byte> buf;
  buf.reserve(at.size);
  put_csc_image(mat, [&buf](const void* data, std::size_t size) {
    append(buf, static_cast<const std::byte*>(data), size);
  });
  CASP_CHECK(buf.size() == at.size);
  return buf;
}

Payload pack_csc_payload(const CscMat& mat) {
  return Payload::wrap(pack_csc(mat));
}

CscWireImages::CscWireImages(Index nrows, std::span<const Index> splits,
                             std::span<const Index> col_capacity)
    : nrows_(nrows),
      splits_(splits.begin(), splits.end()),
      slice_(col_capacity.size() + 1, 0),
      image_at_(splits.size(), 0),
      rowids_(col_capacity.size()),
      vals_(col_capacity.size()) {
  CASP_CHECK_MSG(splits_.size() >= 2 && splits_.front() == 0 &&
                     splits_.back() == static_cast<Index>(col_capacity.size()) &&
                     std::is_sorted(splits_.begin(), splits_.end()),
                 "CscWireImages: splits must ascend from 0 to "
                     << col_capacity.size());
  std::partial_sum(col_capacity.begin(), col_capacity.end(), slice_.begin() + 1);
  auto layout = [&](std::size_t m) {
    const auto c0 = static_cast<std::size_t>(splits_[m]);
    const auto c1 = static_cast<std::size_t>(splits_[m + 1]);
    return ImageLayout(static_cast<Index>(c1 - c0), slice_[c1] - slice_[c0]);
  };
  for (std::size_t m = 0; m + 1 < splits_.size(); ++m)
    image_at_[m + 1] = image_at_[m] + layout(m).size;
  bytes_ = BlockPool::global().take<std::byte>(image_at_.back());
  static_assert(std::is_trivially_copyable_v<Index> &&
                std::is_trivially_copyable_v<Value>);
  for (std::size_t m = 0; m + 1 < splits_.size(); ++m) {
    const auto c0 = static_cast<std::size_t>(splits_[m]);
    const ImageLayout at = layout(m);
    auto* rowids = reinterpret_cast<Index*>(bytes_.data() + image_at_[m] + at.rowids);
    auto* vals = reinterpret_cast<Value*>(bytes_.data() + image_at_[m] + at.vals);
    for (auto j = c0; j < static_cast<std::size_t>(splits_[m + 1]); ++j) {
      rowids_[j] = rowids + (slice_[j] - slice_[c0]);
      vals_[j] = vals + (slice_[j] - slice_[c0]);
    }
  }
}

CscWireImages::~CscWireImages() {
  BlockPool::global().give(std::move(bytes_));
}

std::vector<Payload> CscWireImages::finish(std::span<const Index> counts) && {
  CASP_CHECK(counts.size() + 1 == slice_.size());
  const std::size_t l = splits_.size() - 1;
  std::vector<std::size_t> image_size(l);
  static_assert(std::is_trivially_copyable_v<Index> &&
                std::is_trivially_copyable_v<Value>);
  for (std::size_t m = 0; m < l; ++m) {
    const auto c0 = static_cast<std::size_t>(splits_[m]);
    const auto c1 = static_cast<std::size_t>(splits_[m + 1]);
    std::byte* base = bytes_.data() + image_at_[m];
    auto* colptr = reinterpret_cast<Index*>(base + ImageLayout::colptr);
    colptr[0] = 0;
    for (std::size_t j = c0; j < c1; ++j) {
      CASP_CHECK(counts[j] <= col_capacity(static_cast<Index>(j)));
      colptr[j - c0 + 1] = colptr[j - c0] + counts[j];
    }
    const Header h{nrows_, static_cast<Index>(c1 - c0), colptr[c1 - c0]};
    std::memcpy(base, &h, sizeof(Header));
    const ImageLayout at(h.ncols, h.nnz);
    image_size[m] = at.size;
    // Short slices: move each column left to its place, ascending. Column
    // j's destination ends where column j+1's source starts at the latest,
    // so no move overwrites a column not yet moved.
    const Index reserved = slice_[c1] - slice_[c0];
    if (h.nnz == reserved) continue;
    const ImageLayout filled(h.ncols, reserved);
    for (const auto& [from, to, width] :
         {std::array{filled.rowids, at.rowids, sizeof(Index)},
          std::array{filled.vals, at.vals, sizeof(Value)}}) {
      for (std::size_t j = c0; j < c1; ++j)
        std::memmove(
            base + to + static_cast<std::size_t>(colptr[j - c0]) * width,
            base + from + static_cast<std::size_t>(slice_[j] - slice_[c0]) * width,
            static_cast<std::size_t>(counts[j]) * width);
    }
  }
  const Payload whole = Payload::wrap(std::move(bytes_));
  std::vector<Payload> images;
  images.reserve(l);
  for (std::size_t m = 0; m < l; ++m)
    images.push_back(whole.subview(image_at_[m], image_size[m]));
  return images;
}

CscView unpack_csc_view(const Payload& payload) {
  CASP_CHECK_MSG(payload.size() >= sizeof(Header),
                 "unpack_csc_view: payload shorter than header");
  Header h{};
  std::memcpy(&h, payload.data(), sizeof(Header));
  const std::byte* base = payload.data();
  static_assert(std::is_trivially_copyable_v<Index> &&
                std::is_trivially_copyable_v<Value>);
  // Bound the counts by the payload before sizing the layout from them, so
  // a corrupt header cannot wrap the size arithmetic into a match.
  const std::size_t words = payload.size() / sizeof(Index);
  CASP_CHECK_MSG(h.ncols >= 0 && h.nnz >= 0 &&
                     static_cast<std::size_t>(h.ncols) < words &&
                     static_cast<std::size_t>(h.nnz) < words,
                 "unpack_csc_view: size does not match header");
  const ImageLayout at(h.ncols, h.nnz);
  CASP_CHECK_MSG(payload.size() == at.size,
                 "unpack_csc_view: size does not match header");
  // The arrays are read in place, so the payload itself must start aligned.
  CASP_CHECK_MSG(reinterpret_cast<std::uintptr_t>(base) % alignof(Value) == 0,
                 "unpack_csc_view: payload is not 8-byte aligned");
  const auto ncolptr = static_cast<std::size_t>(h.ncols) + 1;
  const auto nnz = static_cast<std::size_t>(h.nnz);
  const auto* colptr = reinterpret_cast<const Index*>(base + ImageLayout::colptr);
  // Monotone from 0 to nnz, so every column's span lies inside the arrays.
  CASP_CHECK_MSG(colptr[0] == 0 && colptr[ncolptr - 1] == h.nnz &&
                     std::is_sorted(colptr, colptr + ncolptr),
                 "unpack_csc_view: corrupt colptr");
  const auto* rowids = reinterpret_cast<const Index*>(base + at.rowids);
  const auto* vals = reinterpret_cast<const Value*>(base + at.vals);
  return CscView(h.nrows, h.ncols, {colptr, ncolptr}, {rowids, nnz},
                 {vals, nnz}, payload);
}

CscMat unpack_csc(const std::vector<std::byte>& buffer) {
  // The view's checks bound the header's counts by the buffer before
  // anything is sized from them.
  return unpack_csc_view(Payload::wrap(buffer)).materialize();
}

}  // namespace casp
