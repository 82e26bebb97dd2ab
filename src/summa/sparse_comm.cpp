#include "summa/sparse_comm.hpp"

#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "sparse/serialize.hpp"

namespace casp {

namespace {

constexpr std::size_t kWord = sizeof(std::uint64_t);
static_assert(sizeof(Index) == kWord && sizeof(Value) == kWord,
              "the sparse-exchange wire protocol assumes 8-byte elements");

/// Byte offsets of the three CSC arrays inside a packed block (mirrors the
/// wire layout of sparse/serialize.cpp: 24-byte header, then colptr,
/// rowids, vals — all 8-byte elements, so every offset is 8-aligned).
struct BlockLayout {
  std::size_t colptr = 0;
  std::size_t rowids = 0;
  std::size_t vals = 0;
};

BlockLayout block_layout(Index ncols, Index nnz) {
  BlockLayout l;
  l.colptr = 3 * sizeof(Index);  // Header{nrows, ncols, nnz}
  l.rowids = l.colptr + (static_cast<std::size_t>(ncols) + 1) * sizeof(Index);
  l.vals = l.rowids + static_cast<std::size_t>(nnz) * sizeof(Index);
  return l;
}

void append_u64(std::vector<std::byte>& buf, std::uint64_t v) {
  static_assert(std::is_trivially_copyable_v<std::uint64_t>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  buf.insert(buf.end(), p, p + sizeof(v));
}

std::uint64_t read_u64(const std::byte* base, std::size_t word) {
  std::uint64_t v = 0;
  std::memcpy(&v, base + word * kWord, sizeof(v));
  return v;
}

}  // namespace

std::vector<Index> row_support(const CscConstRef& b) {
  std::vector<bool> seen(static_cast<std::size_t>(b.nrows()), false);
  for (Index r : b.rowids()) seen[static_cast<std::size_t>(r)] = true;
  std::vector<Index> support;
  for (Index r = 0; r < b.nrows(); ++r)
    if (seen[static_cast<std::size_t>(r)]) support.push_back(r);
  return support;
}

std::vector<ColRange> coalesce_cols(std::span<const Index> cols,
                                    Index max_gap) {
  std::vector<ColRange> ranges;
  for (Index c : cols) {
    if (!ranges.empty() && c - ranges.back().end <= max_gap) {
      ranges.back().end = c + 1;
    } else {
      ranges.push_back({c, c + 1});
    }
  }
  return ranges;
}

Payload pack_need_request(std::span<const ColRange> ranges) {
  std::vector<std::byte> buf;
  buf.reserve((1 + 2 * ranges.size()) * kWord);
  append_u64(buf, ranges.size());
  for (const ColRange& r : ranges) {
    append_u64(buf, static_cast<std::uint64_t>(r.begin));
    append_u64(buf, static_cast<std::uint64_t>(r.end));
  }
  return Payload::wrap(std::move(buf));
}

std::vector<ColRange> unpack_need_request(const Payload& request) {
  CASP_CHECK_MSG(request.size() >= kWord && request.size() % kWord == 0,
                 "unpack_need_request: malformed request");
  const std::byte* base = request.data();
  const std::size_t words = request.size() / kWord;
  const std::uint64_t nranges = read_u64(base, 0);
  // Compared in words, so a corrupt count cannot overflow into a match.
  CASP_CHECK_MSG(words % 2 == 1 && nranges == (words - 1) / 2,
                 "unpack_need_request: size does not match range count");
  std::vector<ColRange> ranges(nranges);
  Index prev_end = 0;
  for (std::size_t i = 0; i < nranges; ++i) {
    ranges[i].begin = static_cast<Index>(read_u64(base, 1 + 2 * i));
    ranges[i].end = static_cast<Index>(read_u64(base, 2 + 2 * i));
    CASP_CHECK_MSG(ranges[i].begin >= prev_end &&
                       ranges[i].begin < ranges[i].end,
                   "unpack_need_request: ranges not ascending half-open");
    prev_end = ranges[i].end;
  }
  return ranges;
}

vmpi::SparseReply make_sparse_reply(const Payload& packed_block,
                                    const Payload& request) {
  const CscView block = unpack_csc_view(packed_block);
  const std::vector<ColRange> ranges = unpack_need_request(request);
  const std::span<const Index> colptr = block.colptr();

  vmpi::SparseReply reply;
  reply.dense_equivalent_bytes = static_cast<Bytes>(packed_block.size());

  // Size the sparse reply before building anything: descriptor words plus
  // the rowids/vals volume of the requested ranges.
  std::size_t desc_words = 4;  // kind, nrows, ncols, nranges
  Index range_nnz = 0;
  for (const ColRange& r : ranges) {
    CASP_CHECK_MSG(r.end <= block.ncols(),
                   "make_sparse_reply: range past block width");
    desc_words += 2 + static_cast<std::size_t>(r.end - r.begin) + 1;
    range_nnz += colptr[static_cast<std::size_t>(r.end)] -
                 colptr[static_cast<std::size_t>(r.begin)];
  }
  const Bytes sparse_bytes =
      static_cast<Bytes>(desc_words * kWord) +
      static_cast<Bytes>(range_nnz) * (sizeof(Index) + sizeof(Value));

  if (sparse_bytes >= reply.dense_equivalent_bytes) {
    // Dense fallback: a one-word descriptor plus the whole packed block as
    // a single subview handle — no worse than the dense broadcast path
    // beyond the fixed metadata.
    std::vector<std::byte> desc;
    append_u64(desc, 0);
    reply.parts.push_back(Payload::wrap(std::move(desc)));
    reply.parts.push_back(packed_block.subview(0, packed_block.size()));
    return reply;
  }

  const BlockLayout layout = block_layout(block.ncols(), block.nnz());
  std::vector<std::byte> desc;
  desc.reserve(desc_words * kWord);
  append_u64(desc, 1);
  append_u64(desc, static_cast<std::uint64_t>(block.nrows()));
  append_u64(desc, static_cast<std::uint64_t>(block.ncols()));
  append_u64(desc, ranges.size());
  for (const ColRange& r : ranges) {
    append_u64(desc, static_cast<std::uint64_t>(r.begin));
    append_u64(desc, static_cast<std::uint64_t>(r.end));
  }
  static_assert(std::is_trivially_copyable_v<Index>);
  for (const ColRange& r : ranges) {
    const auto* p = reinterpret_cast<const std::byte*>(
        colptr.data() + static_cast<std::size_t>(r.begin));
    desc.insert(desc.end(), p,
                p + (static_cast<std::size_t>(r.end - r.begin) + 1) * kWord);
  }
  reply.parts.reserve(1 + 2 * ranges.size());
  reply.parts.push_back(Payload::wrap(std::move(desc)));
  for (const ColRange& r : ranges) {
    const auto lo =
        static_cast<std::size_t>(colptr[static_cast<std::size_t>(r.begin)]);
    const auto hi =
        static_cast<std::size_t>(colptr[static_cast<std::size_t>(r.end)]);
    reply.parts.push_back(packed_block.subview(
        layout.rowids + lo * sizeof(Index), (hi - lo) * sizeof(Index)));
    reply.parts.push_back(packed_block.subview(
        layout.vals + lo * sizeof(Value), (hi - lo) * sizeof(Value)));
  }
  return reply;
}

CscView assemble_sparse_block(std::span<const Payload> parts, Index nrows,
                              Index ncols) {
  CASP_CHECK_MSG(!parts.empty(), "assemble_sparse_block: empty reply");
  const Payload& desc = parts[0];
  CASP_CHECK_MSG(desc.size() >= kWord && desc.size() % kWord == 0,
                 "assemble_sparse_block: malformed descriptor");
  const std::byte* base = desc.data();
  const std::size_t words = desc.size() / kWord;
  const std::uint64_t kind = read_u64(base, 0);
  if (kind == 0) {
    CASP_CHECK_MSG(words == 1 && parts.size() == 2,
                   "assemble_sparse_block: dense reply needs the block");
    CscView block = unpack_csc_view(parts[1]);
    CASP_CHECK_MSG(block.nrows() == nrows && block.ncols() == ncols,
                   "assemble_sparse_block: block is not the expected shape");
    return block;
  }
  CASP_CHECK_MSG(kind == 1, "assemble_sparse_block: unknown reply kind");
  CASP_CHECK_MSG(words >= 4, "assemble_sparse_block: descriptor too short");
  CASP_CHECK_MSG(static_cast<Index>(read_u64(base, 1)) == nrows &&
                     static_cast<Index>(read_u64(base, 2)) == ncols,
                 "assemble_sparse_block: reply is not the expected shape");
  const std::uint64_t nranges = read_u64(base, 3);
  CASP_CHECK_MSG(nranges <= (words - 4) / 2 && parts.size() == 1 + 2 * nranges,
                 "assemble_sparse_block: range part count mismatch");

  // Validate everything before allocating: ranges ascending half-open
  // inside the block, each colptr slice inside the descriptor and
  // monotone, slices ascending across ranges (they are offsets into one
  // sender block), and each range's parts exactly its slice's nnz.
  struct Shipped {
    ColRange range;
    std::size_t slice_word = 0;
    Index nnz = 0;
  };
  std::vector<Shipped> shipped(nranges);
  std::size_t w = 4 + 2 * nranges;
  Index col = 0;
  Index prev_last = 0;
  Index total_nnz = 0;
  for (std::size_t i = 0; i < nranges; ++i) {
    ColRange& r = shipped[i].range;
    r.begin = static_cast<Index>(read_u64(base, 4 + 2 * i));
    r.end = static_cast<Index>(read_u64(base, 5 + 2 * i));
    CASP_CHECK_MSG(r.begin >= col && r.begin < r.end && r.end <= ncols,
                   "assemble_sparse_block: ranges not ascending half-open");
    col = r.end;
    const auto width = static_cast<std::size_t>(r.end - r.begin) + 1;
    CASP_CHECK_MSG(width <= words - w,
                   "assemble_sparse_block: truncated colptr slices");
    Index lo = static_cast<Index>(read_u64(base, w));
    CASP_CHECK_MSG(lo >= prev_last,
                   "assemble_sparse_block: corrupt colptr slice");
    const Index first = lo;
    for (std::size_t k = 1; k < width; ++k) {
      const auto hi = static_cast<Index>(read_u64(base, w + k));
      CASP_CHECK_MSG(hi >= lo, "assemble_sparse_block: corrupt colptr slice");
      lo = hi;
    }
    prev_last = lo;
    const Index nnz = lo - first;
    const Payload& rowids = parts[1 + 2 * i];
    const Payload& vals = parts[2 + 2 * i];
    CASP_CHECK_MSG(rowids.size() % sizeof(Index) == 0 &&
                       rowids.size() / sizeof(Index) ==
                           static_cast<std::size_t>(nnz) &&
                       vals.size() == rowids.size(),
                   "assemble_sparse_block: range payload size mismatch");
    shipped[i].slice_word = w;
    shipped[i].nnz = nnz;
    total_nnz += nnz;
    w += width;
  }
  CASP_CHECK_MSG(w == words,
                 "assemble_sparse_block: trailing descriptor bytes");

  // Splice the shipped ranges into one fresh full-width packed block:
  // colptr rebased to the shipped nnz (unrequested columns empty), the
  // rowids/vals bytes copied verbatim so every requested column is
  // bit-identical to the sender's.
  const BlockLayout layout = block_layout(ncols, total_nnz);
  std::vector<std::byte> buf(layout.vals +
                             static_cast<std::size_t>(total_nnz) *
                                 sizeof(Value));
  const Index header[3] = {nrows, ncols, total_nnz};
  std::memcpy(buf.data(), header, sizeof(header));
  static_assert(std::is_trivially_copyable_v<Index>);
  auto* out_colptr = reinterpret_cast<Index*>(buf.data() + layout.colptr);
  out_colptr[0] = 0;
  Index running = 0;
  col = 0;
  for (std::size_t i = 0; i < nranges; ++i) {
    const ColRange& r = shipped[i].range;
    for (; col < r.begin; ++col)
      out_colptr[static_cast<std::size_t>(col) + 1] = running;
    const Index start = running;
    const std::size_t sw = shipped[i].slice_word;
    const auto first = static_cast<Index>(read_u64(base, sw));
    for (Index c = r.begin; c < r.end; ++c) {
      const auto off = static_cast<std::size_t>(c - r.begin) + 1;
      out_colptr[static_cast<std::size_t>(c) + 1] =
          start + static_cast<Index>(read_u64(base, sw + off)) - first;
    }
    col = r.end;
    running = start + shipped[i].nnz;
    if (shipped[i].nnz != 0) {
      const Payload& rowids = parts[1 + 2 * i];
      const Payload& vals = parts[2 + 2 * i];
      std::memcpy(buf.data() + layout.rowids +
                      static_cast<std::size_t>(start) * sizeof(Index),
                  rowids.data(), rowids.size());
      std::memcpy(buf.data() + layout.vals +
                      static_cast<std::size_t>(start) * sizeof(Value),
                  vals.data(), vals.size());
    }
  }
  for (; col < ncols; ++col)
    out_colptr[static_cast<std::size_t>(col) + 1] = running;
  CASP_CHECK(running == total_nnz);
  return unpack_csc_view(Payload::wrap(std::move(buf)));
}

}  // namespace casp
