#include "grid/dist.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <type_traits>

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/recorder.hpp"
#include "sparse/serialize.hpp"
#include "summa/steps.hpp"

namespace casp {

LocalRange a_style_row_range(const Grid3D& grid, Index global_rows) {
  const Index q = grid.q();
  return {part_low(grid.row(), q, global_rows),
          part_size(grid.row(), q, global_rows)};
}

LocalRange a_style_col_range(const Grid3D& grid, Index global_cols) {
  const Index q = grid.q();
  const Index l = grid.layers();
  const Index part_start = part_low(grid.col(), q, global_cols);
  const Index psize = part_size(grid.col(), q, global_cols);
  return {part_start + part_low(grid.layer(), l, psize),
          part_size(grid.layer(), l, psize)};
}

LocalRange b_style_row_range(const Grid3D& grid, Index global_rows) {
  const Index q = grid.q();
  const Index l = grid.layers();
  const Index part_start = part_low(grid.row(), q, global_rows);
  const Index psize = part_size(grid.row(), q, global_rows);
  return {part_start + part_low(grid.layer(), l, psize),
          part_size(grid.layer(), l, psize)};
}

LocalRange b_style_col_range(const Grid3D& grid, Index global_cols) {
  const Index q = grid.q();
  return {part_low(grid.col(), q, global_cols),
          part_size(grid.col(), q, global_cols)};
}

CscMat extract_block(const CscMat& m, Index r0, Index r1, Index c0, Index c1) {
  CASP_CHECK(0 <= r0 && r0 <= r1 && r1 <= m.nrows());
  CASP_CHECK(0 <= c0 && c0 <= c1 && c1 <= m.ncols());
  const Index ncols = c1 - c0;
  std::vector<Index> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  std::vector<Index> rowids;
  std::vector<Value> vals;
  for (Index j = c0; j < c1; ++j) {
    const auto rows = m.col_rowids(j);
    const auto values = m.col_vals(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (rows[k] >= r0 && rows[k] < r1) {
        rowids.push_back(rows[k] - r0);
        vals.push_back(values[k]);
      }
    }
    colptr[static_cast<std::size_t>(j - c0) + 1] =
        static_cast<Index>(rowids.size());
  }
  return CscMat(r1 - r0, ncols, std::move(colptr), std::move(rowids),
                std::move(vals));
}

DistMat3D distribute_a_style(const Grid3D& grid, const CscMat& global) {
  DistMat3D d;
  d.global_rows = global.nrows();
  d.global_cols = global.ncols();
  d.global_nnz = global.nnz();
  d.rows = a_style_row_range(grid, global.nrows());
  d.cols = a_style_col_range(grid, global.ncols());
  d.local = extract_block(global, d.rows.start, d.rows.start + d.rows.count,
                          d.cols.start, d.cols.start + d.cols.count);
  return d;
}

CscMat product_block(const Grid3D& grid, const CscMat& global) {
  const LocalRange rows = a_style_row_range(grid, global.nrows());
  const LocalRange cols = b_style_col_range(grid, global.ncols());
  return extract_block(global, rows.start, rows.start + rows.count,
                       cols.start, cols.start + cols.count);
}

DistMat3D distribute_b_style(const Grid3D& grid, const CscMat& global) {
  DistMat3D d;
  d.global_rows = global.nrows();
  d.global_cols = global.ncols();
  d.global_nnz = global.nnz();
  d.rows = b_style_row_range(grid, global.nrows());
  d.cols = b_style_col_range(grid, global.ncols());
  d.local = extract_block(global, d.rows.start, d.rows.start + d.rows.count,
                          d.cols.start, d.cols.start + d.cols.count);
  return d;
}

CscMat assemble_blocks(Index nrows, Index ncols,
                       std::span<const CscView> blocks,
                       std::span<const std::pair<Index, Index>> origins) {
  CASP_CHECK(blocks.size() == origins.size());
  const auto disjoint = [](Index lo0, Index n0, Index lo1, Index n1) {
    return n0 == 0 || n1 == 0 || lo0 + n0 <= lo1 || lo1 + n1 <= lo0;
  };
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto [r0, c0] = origins[b];
    const CscView& m = blocks[b];
    CASP_CHECK_MSG(r0 >= 0 && r0 + m.nrows() <= nrows && c0 >= 0 &&
                       c0 + m.ncols() <= ncols,
                   "assemble_blocks: block " << b << " (" << m.nrows() << "x"
                       << m.ncols() << " at " << r0 << "," << c0
                       << ") lies outside the " << nrows << "x" << ncols
                       << " matrix");
    for (std::size_t o = 0; o < b; ++o) {
      const auto [r1, c1] = origins[o];
      CASP_CHECK_MSG(disjoint(r0, m.nrows(), r1, blocks[o].nrows()) ||
                         disjoint(c0, m.ncols(), c1, blocks[o].ncols()),
                     "assemble_blocks: blocks " << o << " and " << b
                                                << " overlap");
    }
  }

  // Column counts, then each block's columns into place, blocks in
  // ascending row origin so a column's pieces land in row order.
  std::vector<Index> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (Index j = 0; j < blocks[b].ncols(); ++j)
      colptr[static_cast<std::size_t>(origins[b].second + j) + 1] +=
          blocks[b].col_nnz(j);
  std::partial_sum(colptr.begin(), colptr.end(), colptr.begin());
  const auto nnz = static_cast<std::size_t>(colptr.back());
  std::vector<Index> rowids = BlockPool::global().take<Index>(nnz);
  std::vector<Value> vals = BlockPool::global().take<Value>(nnz);
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return origins[x].first < origins[y].first;
                   });
  std::vector<Index> next(colptr.begin(), colptr.end() - 1);
  for (const std::size_t b : order) {
    const auto [r0, c0] = origins[b];
    for (Index j = 0; j < blocks[b].ncols(); ++j) {
      const auto rows = blocks[b].col_rowids(j);
      const auto values = blocks[b].col_vals(j);
      auto& at = next[static_cast<std::size_t>(c0 + j)];
      const auto dst = static_cast<std::size_t>(at);
      for (std::size_t k = 0; k < rows.size(); ++k)
        rowids[dst + k] = rows[k] + r0;
      std::copy(values.begin(), values.end(), vals.begin() + dst);
      at += static_cast<Index>(rows.size());
    }
  }

  // Repair columns that are not strictly ascending, compacting in place:
  // a column's destination never starts after its source.
  std::size_t out = 0;
  std::vector<std::pair<Index, Value>> column;
  for (std::size_t j = 0; j < static_cast<std::size_t>(ncols); ++j) {
    const auto lo = static_cast<std::size_t>(colptr[j]);
    const auto hi = static_cast<std::size_t>(colptr[j + 1]);
    colptr[j] = static_cast<Index>(out);
    std::size_t k = lo + 1;
    while (k < hi && rowids[k - 1] < rowids[k]) ++k;
    if (k >= hi) {
      if (out != lo) {
        std::copy(rowids.begin() + lo, rowids.begin() + hi,
                  rowids.begin() + out);
        std::copy(vals.begin() + lo, vals.begin() + hi, vals.begin() + out);
      }
      out += hi - lo;
    } else {
      column.clear();
      for (k = lo; k < hi; ++k) column.emplace_back(rowids[k], vals[k]);
      std::stable_sort(column.begin(), column.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      for (std::size_t e = 0; e < column.size(); ++e) {
        if (e > 0 && column[e].first == column[e - 1].first) {
          vals[out - 1] += column[e].second;
          continue;
        }
        rowids[out] = column[e].first;
        vals[out++] = column[e].second;
      }
    }
  }
  colptr.back() = static_cast<Index>(out);
  rowids.resize(out);
  vals.resize(out);
  // The constructor's check_valid rejects rows outside the matrix.
  return CscMat(nrows, ncols, std::move(colptr), std::move(rowids),
                std::move(vals));
}

CscMat gather_dist(Grid3D& grid, const DistMat3D& dist) {
  vmpi::Comm& world = grid.world();
  obs::PhaseSpan span(world.recorder(), steps::kGather);
  const std::vector<Index> at =
      world.allgather_vec<Index>({dist.rows.start, dist.cols.start});
  const std::vector<Payload> images =
      world.allgather_payload(pack_csc_payload(dist.local));
  std::vector<CscView> blocks;
  std::vector<std::pair<Index, Index>> origins;
  for (std::size_t r = 0; r < images.size(); ++r) {
    blocks.push_back(unpack_csc_view(images[r]));
    origins.emplace_back(at[2 * r], at[2 * r + 1]);
  }
  return assemble_blocks(dist.global_rows, dist.global_cols, blocks, origins);
}

CscMat gather_dist(Grid3D& grid, Index nrows, Index ncols,
                   std::span<const PlacedBlock> mine, int root) {
  vmpi::Comm& world = grid.world();
  obs::PhaseSpan span(world.recorder(), steps::kGather);
  static_assert(std::is_trivially_copyable_v<Index>);
  // The root reads its own blocks in place; each other rank sends its
  // origins as the head and its blocks' wire images as the parts.
  std::vector<Payload> sent;
  if (world.rank() != root) {
    std::vector<Index> at;
    for (const PlacedBlock& p : mine)
      at.insert(at.end(), {p.origin.first, p.origin.second});
    const auto* head = reinterpret_cast<const std::byte*>(at.data());
    sent.push_back(Payload::copy_of(head, at.size() * sizeof(Index)));
    for (const PlacedBlock& p : mine) sent.push_back(pack_csc_payload(p.block));
  }
  const std::vector<std::vector<Payload>> got =
      world.gather_payloads(root, std::move(sent));
  if (world.rank() != root) return CscMat();
  std::vector<CscView> blocks;
  std::vector<std::pair<Index, Index>> origins;
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (static_cast<int>(r) == root) {
      for (const PlacedBlock& p : mine) {
        const CscMat& m = p.block;
        blocks.emplace_back(m.nrows(), m.ncols(), m.colptr(), m.rowids(),
                            m.vals(), Payload{});
        origins.push_back(p.origin);
      }
      continue;
    }
    const std::vector<Payload>& from = got[r];
    Index at[2];
    CASP_CHECK_MSG(!from.empty() &&
                       from[0].size() == (from.size() - 1) * sizeof(at),
                   "gather_dist: rank " << r << " sent a malformed block list");
    for (std::size_t k = 1; k < from.size(); ++k) {
      std::memcpy(at, from[0].data() + (k - 1) * sizeof(at), sizeof(at));
      blocks.push_back(unpack_csc_view(from[k]));
      origins.emplace_back(at[0], at[1]);
    }
  }
  return assemble_blocks(nrows, ncols, blocks, origins);
}

std::vector<Index> equal_flops_cut(std::span<const Index> flops, Index parts) {
  CASP_CHECK(parts > 0);
  const auto n = static_cast<Index>(flops.size());
  __int128 total = std::accumulate(flops.begin(), flops.end(), __int128{0});
  std::vector<Index> cut;
  __int128 prefix = 0;
  Index x = 0;
  for (Index m = 0; m < parts; ++m) {
    // Exact integer form of prefix(x) >= total * m / parts.
    while (total > 0 && prefix * parts < total * m)
      prefix += flops[static_cast<std::size_t>(x++)];
    cut.push_back(total > 0 ? x : part_low(m, parts, n));
  }
  cut.push_back(n);
  return cut;
}

namespace {

constexpr int kTransposeSwapTag = 16;

struct Moved {
  LocalRange range;  // my new slice
  CscMat local;
  std::vector<Index> layer_flops;  // per layer: incoming slices, then the cut
};

/// Cuts one inner part by its flops `f` and moves the columns `mine` of
/// `local` to their new layers. `from` holds the fiber members' incoming
/// slices of the part, in fiber order.
Moved move_columns(vmpi::Comm& fiber, const std::vector<LocalRange>& from,
                   const std::vector<Index>& f, const LocalRange& mine,
                   const CscMat& local) {
  for (std::size_t m = 1; m < from.size(); ++m)
    CASP_CHECK_MSG(from[m].start == from[m - 1].start + from[m - 1].count,
                   "rebalance_inner: layer slices must tile each part");
  const Index base = from.front().start;
  const auto flops_in = [&](Index lo, Index hi) {
    return std::accumulate(f.begin() + lo, f.begin() + hi, Index{0});
  };
  const std::vector<Index> cut = equal_flops_cut(f, fiber.size());
  Moved moved;
  for (const LocalRange& r : from) {
    const Index lo = r.start - base;
    moved.layer_flops.push_back(flops_in(lo, lo + r.count));
  }
  std::vector<Payload> out;
  for (std::size_t m = 0; m < from.size(); ++m) {
    moved.layer_flops.push_back(flops_in(cut[m], cut[m + 1]));
    const auto clamp = [&](Index g) {
      return std::clamp<Index>(base + g - mine.start, 0, mine.count);
    };
    out.push_back(pack_csc_payload(
        local.slice_cols(clamp(cut[m]), clamp(cut[m + 1]))));
  }
  // Received pieces tile my new slice in fiber order.
  std::vector<CscMat> pieces;
  for (const Payload& p : fiber.alltoall_payload(std::move(out)))
    pieces.push_back(unpack_csc_view(p).materialize());
  const auto k = static_cast<std::size_t>(fiber.rank());
  moved.range = {base + cut[k], cut[k + 1] - cut[k]};
  moved.local = CscMat::concat_cols(pieces);
  return moved;
}

}  // namespace

std::pair<DistMat3D, DistMat3D> rebalance_inner(Grid3D& grid,
                                                const DistMat3D& a,
                                                const DistMat3D& b) {
  CASP_CHECK_MSG(a.global_cols == b.global_rows,
                 "rebalance_inner: inner dimension mismatch");
  obs::Recorder& rec = grid.world().recorder();
  obs::PhaseSpan span(rec, steps::kInnerBalance);
  const auto summed = [](vmpi::Comm& comm, std::vector<Index> v) {
    if (comm.size() == 1) return v;
    return comm.allreduce<Index>(std::move(v), std::plus<Index>());
  };
  const auto col_nnz = [](const CscMat& m) {
    std::vector<Index> v;
    for (Index j = 0; j < m.ncols(); ++j) v.push_back(m.col_nnz(j));
    return v;
  };

  // 1. Global nnz of my A columns and of my B rows (B's rows move as the
  // columns of its transpose).
  const CscMat bt = b.local.transpose();
  const std::vector<Index> a_nnz = summed(grid.col_comm(), col_nnz(a.local));
  const std::vector<Index> b_nnz = summed(grid.row_comm(), col_nnz(bt));

  // 2. The transpose rank (j, i, k) holds A's columns of my B part i and
  // B's rows of my A part j, at the same layer slice.
  std::vector<Index> mine = a_nnz;
  mine.insert(mine.end(), b_nnz.begin(), b_nnz.end());
  std::vector<Index> peer = mine;
  const int transpose = grid.col() * grid.q() + grid.row();
  if (grid.row() != grid.col()) {
    grid.layer_comm().send_vec<Index>(transpose, kTransposeSwapTag, mine);
    peer = grid.layer_comm().recv_vec<Index>(transpose, kTransposeSwapTag);
  }
  CASP_CHECK_MSG(peer.size() == mine.size(),
                 "rebalance_inner: A column and B row slices disagree");
  std::vector<Index> share = {a.cols.start, a.cols.count, b.rows.start,
                              b.rows.count};
  for (std::size_t t = 0; t < a_nnz.size(); ++t)
    share.push_back(a_nnz[t] * peer[b_nnz.size() + t]);
  for (std::size_t t = 0; t < b_nnz.size(); ++t)
    share.push_back(b_nnz[t] * peer[t]);

  // 3. Every fiber member learns the flops of both whole parts.
  vmpi::Comm& fiber = grid.fiber_comm();
  const std::vector<Index> all = fiber.allgather_vec<Index>(share);
  std::vector<LocalRange> a_from, b_from;
  std::vector<Index> a_f, b_f;
  for (auto it = all.begin(); it != all.end(); it += 4 + it[1] + it[3]) {
    a_from.push_back({it[0], it[1]});
    b_from.push_back({it[2], it[3]});
    a_f.insert(a_f.end(), it + 4, it + 4 + it[1]);
    b_f.insert(b_f.end(), it + 4 + it[1], it + 4 + it[1] + it[3]);
  }

  // 4. Cut both parts and move the slices along the fiber.
  Moved am = move_columns(fiber, a_from, a_f, a.cols, a.local);
  const Moved bm = move_columns(fiber, b_from, b_f, b.rows, bt);
  std::pair<DistMat3D, DistMat3D> out{
      {std::move(am.local), a.global_rows, a.global_cols, a.global_nnz,
       a.rows, am.range},
      {bm.local.transpose(), b.global_rows, b.global_cols, b.global_nnz,
       bm.range, b.cols}};

  // A layer's flops sum over all inner parts, one per rank of my grid row.
  const std::vector<Index> layer = summed(grid.row_comm(), am.layer_flops);
  const auto mid = layer.begin() + grid.layers();
  rec.set_counter("summa.layer_flops_max_in",
                  *std::max_element(layer.begin(), mid));
  rec.set_counter("summa.layer_flops_max", *std::max_element(mid, layer.end()));
  return out;
}

}  // namespace casp
