// Flat byte serialization of CscMat for message passing.
//
// One matrix = one message: header (nrows, ncols, nnz) followed by the
// three CSC arrays. The on-wire size is what the traffic instrumentation
// records, so serialized bytes are the "communication volume" of the
// experiments.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/payload.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/csc_view.hpp"

namespace casp {

std::vector<std::byte> pack_csc(const CscMat& mat);

/// pack_csc's image handed to `put` as the byte ranges it concatenates, in
/// order: the header, colptr, rowids, vals. Streaming writers (checkpoint
/// files) emit a matrix this way without building the buffer.
void put_csc_image(const CscMat& mat,
                   const std::function<void(const void*, std::size_t)>& put);

CscMat unpack_csc(const std::vector<std::byte>& buffer);

/// Pack straight into a transport payload (one allocation, no intermediate
/// buffer) for handle-forwarding sends.
Payload pack_csc_payload(const CscMat& mat);

/// l wire images in one allocation from the block pool
/// (common/block_pool.hpp), filled column by column by the kernel
/// that produces the matrix: image m holds columns [splits[m], splits[m+1])
/// and column j a slice of col_capacity[j] entries. finish(counts) writes
/// the headers and colptrs, compacts short slices in place, and returns the
/// images as subviews, each byte-identical to
/// pack_csc_payload(mat.slice_cols(splits[m], splits[m+1])).
class CscWireImages {
 public:
  /// splits: ascending, from 0 to col_capacity.size().
  CscWireImages(Index nrows, std::span<const Index> splits,
                std::span<const Index> col_capacity);
  // The column pointers point into bytes_, so a copy would write into the
  // original's buffer.
  CscWireImages(const CscWireImages&) = delete;
  CscWireImages& operator=(const CscWireImages&) = delete;
  /// Returns the images' bytes to the block pool unless finish() handed
  /// them on.
  ~CscWireImages();

  Index col_capacity(Index j) const {
    return slice_[static_cast<std::size_t>(j) + 1] - slice_[static_cast<std::size_t>(j)];
  }
  Index* col_rowids(Index j) { return rowids_[static_cast<std::size_t>(j)]; }
  Value* col_vals(Index j) { return vals_[static_cast<std::size_t>(j)]; }

  /// counts[j] <= col_capacity(j) entries were written to column j.
  std::vector<Payload> finish(std::span<const Index> counts) &&;

 private:
  Index nrows_;
  std::vector<Index> splits_;
  std::vector<Index> slice_;  // column j's slice: [slice_[j], slice_[j+1])
  std::vector<std::size_t> image_at_;  // image m starts at byte image_at_[m]
  std::vector<Index*> rowids_;
  std::vector<Value*> vals_;
  std::vector<std::byte> bytes_;
};

/// Borrow the CSC arrays directly from a packed payload — the zero-copy
/// receive path. The returned view shares ownership of the payload's
/// allocation, so it stays valid for the view's lifetime. Requires the
/// payload start to be 8-byte aligned (the wire format guarantees this for
/// whole messages and for allgather subviews: 24-byte header, 8-byte
/// elements, 8-byte length prefixes). A size that does not match the
/// header, or a colptr that does not climb monotonically from 0 to nnz,
/// fails a CASP_CHECK; row ids and values are not checked.
CscView unpack_csc_view(const Payload& payload);

/// On-wire size without building the buffer.
Bytes packed_size(const CscMat& mat);

}  // namespace casp
