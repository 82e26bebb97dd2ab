#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "apps/batch_io.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/casp_batch_io_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A directory holding one hand-written part-0.txt with `content`.
std::string dir_with_part(const std::string& name, const std::string& content) {
  const std::string dir = fresh_dir(name);
  std::filesystem::create_directories(dir);
  std::ofstream out(dir + "/part-0.txt");
  out << content;
  return dir;
}

// The InputError message load_batch_directory raises for `content`.
std::string load_error(const std::string& name, const std::string& content) {
  const std::string dir = dir_with_part(name, content);
  try {
    load_batch_directory(dir);
  } catch (const InputError& e) {
    return e.what();
  }
  ADD_FAILURE() << "corrupt input in " << dir << " loaded without error";
  return {};
}

TEST(BatchIo, StreamedBatchesReloadToTheExactProduct) {
  const std::string dir = fresh_dir("roundtrip");
  const Index n = 26;
  const CscMat a = testing::random_matrix(n, n, 3.0, 140);
  const CscMat expected = reference_multiply<PlusTimes>(a, a);

  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.force_batches = 3;
    batched_summa3d<PlusTimes>(grid, da, db, 0, opts,
                               make_disk_batch_writer(dir, world.rank()),
                               /*keep_output=*/false);
  });

  const CscMat loaded = load_batch_directory(dir);
  testing::expect_mat_near(loaded, expected, 1e-9);
}

TEST(BatchIo, PreservesEmptyBorderRowsAndCols) {
  // The header carries the global shape even when the last rows/columns of
  // the product are empty.
  const std::string dir = fresh_dir("borders");
  const Index n = 16;
  TripleMat t(n, n);
  t.push_back(0, 0, 2.0);  // product will live entirely in the top-left
  const CscMat a = CscMat::from_triples(std::move(t));
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    batched_summa3d<PlusTimes>(grid, da, db, 0, {},
                               make_disk_batch_writer(dir, world.rank()),
                               /*keep_output=*/false);
  });
  const CscMat loaded = load_batch_directory(dir);
  EXPECT_EQ(loaded.nrows(), n);
  EXPECT_EQ(loaded.ncols(), n);
  EXPECT_EQ(loaded.nnz(), 1);
  EXPECT_DOUBLE_EQ(loaded.col_vals(0)[0], 4.0);
}

TEST(BatchIo, MissingDirectoryThrows) {
  EXPECT_THROW(load_batch_directory(::testing::TempDir() + "/casp_nonexistent"),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Hardened loader: corrupt, truncated, and hostile inputs become structured
// InputErrors that name the file and line — never a crash, hang, or
// silently wrong matrix.

TEST(BatchIoHardening, TruncatedEntryNamesFileAndLine) {
  const std::string err =
      load_error("truncated", "casp-batch 4 4\n0 1 2.0\n3 2\n");
  EXPECT_NE(err.find("part-0.txt:3"), std::string::npos);
  EXPECT_NE(err.find("corrupt entry"), std::string::npos);
}

TEST(BatchIoHardening, EntryBeforeHeaderIsRejected) {
  const std::string err = load_error("no_header", "0 1 2.0\n");
  EXPECT_NE(err.find("part-0.txt:1"), std::string::npos);
  EXPECT_NE(err.find("before shape header"), std::string::npos);
}

TEST(BatchIoHardening, NegativeHeaderDimensionIsRejected) {
  const std::string err = load_error("neg_dim", "casp-batch -4 4\n");
  EXPECT_NE(err.find("negative dimension"), std::string::npos);
}

TEST(BatchIoHardening, OversizedHeaderDimensionIsRejected) {
  // 2^50 rows would pass a naive parse and overflow downstream index
  // arithmetic; the loader caps dimensions at 2^48.
  const std::string err =
      load_error("huge_dim", "casp-batch 1125899906842624 4\n");
  EXPECT_NE(err.find("oversized dimension"), std::string::npos);
}

TEST(BatchIoHardening, UnparsableHeaderIsRejected) {
  const std::string err = load_error("bad_header", "casp-batch four 4\n");
  EXPECT_NE(err.find("unparsable shape header"), std::string::npos);
}

TEST(BatchIoHardening, TrailingTokensAreRejected) {
  const std::string header_err =
      load_error("trail_header", "casp-batch 4 4 9\n");
  EXPECT_NE(header_err.find("trailing token '9'"), std::string::npos);
  const std::string entry_err =
      load_error("trail_entry", "casp-batch 4 4\n0 1 2.0 junk\n");
  EXPECT_NE(entry_err.find("trailing token 'junk'"), std::string::npos);
}

TEST(BatchIoHardening, OutOfRangeCoordinatesAreRejected) {
  const std::string err =
      load_error("range", "casp-batch 4 4\n0 9 1.0\n");
  EXPECT_NE(err.find("outside the declared 4x4 shape"), std::string::npos);
  const std::string neg =
      load_error("neg_coord", "casp-batch 4 4\n-1 0 1.0\n");
  EXPECT_NE(neg.find("outside the declared"), std::string::npos);
}

TEST(BatchIoHardening, NonFiniteValuesAreRejected) {
  EXPECT_NE(load_error("nan", "casp-batch 4 4\n0 1 nan\n")
                .find("non-finite value"),
            std::string::npos);
  EXPECT_NE(load_error("inf", "casp-batch 4 4\n0 1 inf\n")
                .find("non-finite value"),
            std::string::npos);
}

TEST(BatchIoHardening, PartsDisagreeingOnShapeAreRejected) {
  const std::string dir = dir_with_part("shape_a", "casp-batch 4 4\n");
  {
    std::ofstream out(dir + "/part-1.txt");
    out << "casp-batch 8 8\n";
  }
  EXPECT_THROW(load_batch_directory(dir), InputError);
}

TEST(BatchIoHardening, ClassifiedAsInputErrorInsideAJob) {
  // A corrupt batch directory read inside a virtual job must classify as
  // kind "input_error" in the FailureReport, like every other failure
  // class — not surface as a bare abort.
  const std::string dir =
      dir_with_part("classified", "casp-batch 4 4\n0 1 garbage\n");
  vmpi::RunOptions opts;
  opts.capture_failure = true;
  auto result = vmpi::run(
      2,
      [&](vmpi::Comm& comm) {
        comm.set_phase("Load");
        if (comm.rank() == 0) (void)load_batch_directory(dir);
      },
      opts);
  ASSERT_TRUE(result.failed());
  EXPECT_EQ(result.failure->kind, "input_error");
  EXPECT_EQ(result.failure->rank, 0);
  EXPECT_EQ(result.failure->phase, "Load");
  EXPECT_NE(result.failure->what.find("part-0.txt:2"), std::string::npos);
}

}  // namespace
}  // namespace casp
