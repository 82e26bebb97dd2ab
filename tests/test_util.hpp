// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "gen/er.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/serialize.hpp"
#include "sparse/triple_mat.hpp"
#include "vmpi/comm.hpp"

namespace casp::testing {

/// Typed broadcast over the payload-first Comm surface, for tests that
/// exercise the collective machinery with small typed vectors. (The old
/// Comm::bcast_vec compat wrapper this replaces is gone; production code
/// broadcasts Payload handles directly.)
template <typename T>
std::vector<T> bcast_typed(vmpi::Comm& comm, int root, std::vector<T> data) {
  static_assert(std::is_trivially_copyable_v<T>);
  Payload p;
  if (comm.rank() == root)
    p = Payload::copy_of(
        reinterpret_cast<const std::byte*>(data.data()),
        data.size() * sizeof(T));
  p = comm.bcast_payload(root, std::move(p));
  std::vector<T> out(p.size() / sizeof(T));
  if (p.size() != 0) std::memcpy(out.data(), p.data(), p.size());
  return out;
}

/// Assert mathematical equality of two sparse matrices: same shape, same
/// canonical structure, values within tol.
inline void expect_mat_near(const CscMat& a, const CscMat& b,
                            double tol = 1e-9) {
  ASSERT_EQ(a.nrows(), b.nrows());
  ASSERT_EQ(a.ncols(), b.ncols());
  CscMat sa = a;
  CscMat sb = b;
  sa.sort_columns();
  sb.sort_columns();
  ASSERT_EQ(sa.nnz(), sb.nnz()) << "nonzero count mismatch";
  TripleMat ta = sa.to_triples();
  TripleMat tb = sb.to_triples();
  const double diff = max_abs_diff(ta, tb);
  EXPECT_LE(diff, tol) << "max elementwise difference " << diff;
}

/// Random rectangular test matrix with approximately d nnz per column.
inline CscMat random_matrix(Index rows, Index cols, double d,
                            std::uint64_t seed) {
  ErParams p;
  p.nrows = rows;
  p.ncols = cols;
  p.nnz_per_col = d;
  p.seed = seed;
  return generate_er(p);
}

/// `m` with `extra` empty rows appended: the same entries in a taller
/// block. The kernels pick their row accumulator side from the block height
/// (use_dense_rows), so padding a short block past its work runs the same
/// product on the hash side.
inline CscMat pad_rows(const CscMat& m, Index extra) {
  return CscMat(m.nrows() + extra, m.ncols(),
                std::vector<Index>(m.colptr().begin(), m.colptr().end()),
                std::vector<Index>(m.rowids().begin(), m.rowids().end()),
                std::vector<Value>(m.vals().begin(), m.vals().end()));
}

/// Bitwise equality of the stored arrays (colptr, rowids, vals), ignoring
/// the row count, for comparing a product with its row-padded twin.
inline void expect_same_arrays(const CscMat& a, const CscMat& b) {
  EXPECT_TRUE(std::ranges::equal(a.colptr(), b.colptr())) << "colptr differs";
  EXPECT_TRUE(std::ranges::equal(a.rowids(), b.rowids())) << "rowids differ";
  ASSERT_EQ(a.vals().size(), b.vals().size());
  EXPECT_EQ(std::memcmp(a.vals().data(), b.vals().data(),
                        a.vals().size() * sizeof(Value)),
            0)
      << "vals differ";
}

/// Wire pieces from a kernel that writes them directly must be byte for
/// byte the slice-then-pack of the whole result `d`:
/// pieces[m] == pack_csc_payload(d.slice_cols(splits[m], splits[m+1])).
inline void expect_wire_pieces(const std::vector<Payload>& pieces,
                               const CscMat& d,
                               const std::vector<Index>& splits) {
  ASSERT_EQ(pieces.size() + 1, splits.size());
  for (std::size_t m = 0; m < pieces.size(); ++m) {
    const std::vector<std::byte> expected =
        pack_csc(d.slice_cols(splits[m], splits[m + 1]));
    ASSERT_EQ(pieces[m].size(), expected.size()) << "piece " << m;
    EXPECT_EQ(std::memcmp(pieces[m].data(), expected.data(), expected.size()),
              0)
        << "piece " << m << " differs";
  }
}

}  // namespace casp::testing
