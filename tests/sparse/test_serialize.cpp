#include <gtest/gtest.h>

#include "sparse/serialize.hpp"
#include "test_util.hpp"

namespace casp {
namespace {

TEST(Serialize, RoundTripPreservesEverything) {
  const CscMat m = testing::random_matrix(41, 23, 3.5, 10);
  const auto buf = pack_csc(m);
  EXPECT_EQ(buf.size(), packed_size(m));
  const CscMat back = unpack_csc(buf);
  EXPECT_EQ(back, m);  // bitwise array equality, not just math equality
}

TEST(Serialize, EmptyMatrix) {
  const CscMat m(7, 5);
  const CscMat back = unpack_csc(pack_csc(m));
  EXPECT_EQ(back.nrows(), 7);
  EXPECT_EQ(back.ncols(), 5);
  EXPECT_EQ(back.nnz(), 0);
}

TEST(Serialize, ZeroDimensional) {
  const CscMat m(0, 0);
  const CscMat back = unpack_csc(pack_csc(m));
  EXPECT_EQ(back.nrows(), 0);
  EXPECT_EQ(back.ncols(), 0);
}

TEST(Serialize, PreservesUnsortedColumns) {
  // The wire format must not canonicalize: unsorted intermediates travel
  // between ranks during SUMMA.
  CscMat m(4, 1, {0, 3}, {2, 0, 1}, {1.0, 2.0, 3.0});
  EXPECT_FALSE(m.columns_sorted());
  const CscMat back = unpack_csc(pack_csc(m));
  EXPECT_EQ(back, m);
  EXPECT_FALSE(back.columns_sorted());
}

TEST(Serialize, RejectsTruncatedBuffer) {
  const CscMat m = testing::random_matrix(10, 10, 2.0, 11);
  auto buf = pack_csc(m);
  buf.resize(buf.size() - 1);
  EXPECT_THROW(unpack_csc(buf), std::logic_error);
}

TEST(Serialize, RejectsTrailingBytes) {
  const CscMat m = testing::random_matrix(10, 10, 2.0, 12);
  auto buf = pack_csc(m);
  buf.push_back(std::byte{0});
  EXPECT_THROW(unpack_csc(buf), std::logic_error);
}

TEST(Serialize, RepeatedViewsOfOnePayloadStayConsistent) {
  // The SUMMA loop re-views each forwarded block every stage; repeated
  // views of the same payload must be identical, and a *different* corrupt
  // payload must still be rejected.
  const CscMat m = testing::random_matrix(30, 20, 3.0, 13);
  const Payload payload = pack_csc_payload(m);
  const CscView first = unpack_csc_view(payload);
  for (int i = 0; i < 5; ++i) {
    const CscView again = unpack_csc_view(payload);
    EXPECT_EQ(again.colptr().data(), first.colptr().data());
    EXPECT_EQ(again.nnz(), m.nnz());
  }
  Payload truncated = pack_csc_payload(m);
  truncated = truncated.subview(0, truncated.size() - 8);
  EXPECT_THROW((void)unpack_csc_view(truncated), std::logic_error);
}

TEST(Serialize, MemoKeysOnBufferIdentityNotJustShape) {
  // Two equal-shaped payloads are checked independently: corruption in the
  // second must be caught even right after the first validated cleanly.
  const CscMat m = testing::random_matrix(16, 16, 2.0, 14);
  const Payload good = pack_csc_payload(m);
  (void)unpack_csc_view(good);
  std::vector<std::byte> bytes = pack_csc(m);
  // Corrupt colptr[0] (first word after the 24-byte header).
  bytes[24] = std::byte{0x7f};
  EXPECT_THROW((void)unpack_csc_view(Payload::wrap(std::move(bytes))),
               std::logic_error);
}

TEST(Serialize, CorruptionAtTheSameAddressIsCaught) {
  // Every view checks its colptr ends: a buffer viewed cleanly, stolen back
  // and corrupted at the same address, size and header is content the
  // earlier check never saw.
  const CscMat m = testing::random_matrix(16, 16, 2.0, 15);
  Payload good = Payload::wrap(pack_csc(m));
  const std::byte* address = good.data();
  (void)unpack_csc_view(good);
  std::vector<std::byte> bytes = std::move(good).release_or_copy();
  ASSERT_EQ(bytes.data(), address);  // stolen, not copied
  bytes[24] = std::byte{0x7f};       // colptr[0]
  const Payload corrupt = Payload::wrap(std::move(bytes));
  ASSERT_EQ(corrupt.data(), address);
  EXPECT_THROW((void)unpack_csc_view(corrupt), std::logic_error);
}

/// Fills a CscWireImages from `d`, column by column, into slices of
/// d's column count plus `slack(j)`, as a kernel would.
template <typename Slack>
std::vector<Payload> write_images(const CscMat& d,
                                  const std::vector<Index>& splits,
                                  Slack slack) {
  std::vector<Index> caps(static_cast<std::size_t>(d.ncols()));
  std::vector<Index> counts(caps.size());
  for (Index j = 0; j < d.ncols(); ++j) {
    counts[static_cast<std::size_t>(j)] = d.col_nnz(j);
    caps[static_cast<std::size_t>(j)] = d.col_nnz(j) + slack(j);
  }
  CscWireImages images(d.nrows(), splits, caps);
  for (Index j = 0; j < d.ncols(); ++j) {
    EXPECT_EQ(images.col_capacity(j), caps[static_cast<std::size_t>(j)]);
    std::copy_n(d.col_rowids(j).begin(), d.col_nnz(j), images.col_rowids(j));
    std::copy_n(d.col_vals(j).begin(), d.col_nnz(j), images.col_vals(j));
  }
  return std::move(images).finish(counts);
}

TEST(WireImages, FullSlicesEqualSliceThenPack) {
  const CscMat d = testing::random_matrix(30, 40, 3.0, 16);
  const auto none = [](Index) { return Index{0}; };
  for (const std::vector<Index>& splits :
       {std::vector<Index>{0, 40}, std::vector<Index>{0, 10, 25, 40},
        std::vector<Index>{0, 0, 40, 40}}) {
    const std::vector<Payload> pieces = write_images(d, splits, none);
    testing::expect_wire_pieces(pieces, d, splits);
    for (const Payload& piece : pieces)  // views read them in place
      EXPECT_EQ(unpack_csc_view(piece).nrows(), d.nrows());
  }
}

TEST(WireImages, ShortSlicesAreCompactedInPlace) {
  const CscMat d = testing::random_matrix(30, 40, 3.0, 17);
  // Uneven slack, including columns with none and empty columns with some.
  const auto slack = [](Index j) { return (j * 7) % 5; };
  for (const std::vector<Index>& splits :
       {std::vector<Index>{0, 40}, std::vector<Index>{0, 3, 3, 22, 40}}) {
    testing::expect_wire_pieces(write_images(d, splits, slack), d, splits);
  }
  const CscMat empty(30, 40);
  testing::expect_wire_pieces(write_images(empty, {0, 20, 40}, slack), empty,
                              {0, 20, 40});
}

TEST(WireImages, PiecesShareOneAllocation) {
  const CscMat d = testing::random_matrix(20, 20, 2.0, 18);
  const std::vector<Payload> pieces =
      write_images(d, {0, 5, 20}, [](Index) { return Index{1}; });
  EXPECT_EQ(pieces[0].use_count(), 2);
  EXPECT_EQ(pieces[0].data() + pieces[0].size() +
                2 * sizeof(Index) * 5,  // piece 0's slack: one entry per column
            pieces[1].data());
}

TEST(WireImages, BadSplitsAreRejected) {
  const std::vector<Index> caps(10, 1);
  for (const std::vector<Index>& splits :
       {std::vector<Index>{0, 6, 4, 10}, std::vector<Index>{0, 9},
        std::vector<Index>{1, 10}, std::vector<Index>{10}}) {
    EXPECT_THROW(CscWireImages(5, splits, caps), std::logic_error);
  }
}

}  // namespace
}  // namespace casp
