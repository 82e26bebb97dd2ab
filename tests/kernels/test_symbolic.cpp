#include <gtest/gtest.h>

#include <numeric>

#include "gen/rmat.hpp"
#include "kernels/accumulator.hpp"
#include "kernels/reference.hpp"
#include "kernels/symbolic.hpp"
#include "sparse/stats.hpp"
#include "test_util.hpp"

namespace casp {
namespace {

class SymbolicSweep
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index, double>> {
};

TEST_P(SymbolicSweep, CountsMatchActualProduct) {
  const auto [m, k, n, d] = GetParam();
  const CscMat a = testing::random_matrix(m, k, d, 60);
  const CscMat b = testing::random_matrix(k, n, d, 61);
  const CscMat c = reference_multiply<PlusTimes>(a, b);
  const auto per_col = symbolic_column_nnz(a, b);
  ASSERT_EQ(per_col.size(), static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j)
    EXPECT_EQ(per_col[static_cast<std::size_t>(j)], c.col_nnz(j)) << "col " << j;
  EXPECT_EQ(symbolic_nnz(a, b), c.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SymbolicSweep,
    ::testing::Values(std::tuple<Index, Index, Index, double>{10, 10, 10, 2.0},
                      std::tuple<Index, Index, Index, double>{40, 20, 30, 4.0},
                      std::tuple<Index, Index, Index, double>{1, 5, 1, 2.0},
                      std::tuple<Index, Index, Index, double>{80, 80, 80, 6.0},
                      std::tuple<Index, Index, Index, double>{8, 8, 8, 8.0}));

TEST(Symbolic, BoundsRelativeToFlops) {
  // nnz(C) <= flops always; equality iff no compression (cf == 1).
  const CscMat a = testing::random_matrix(50, 50, 3.0, 62);
  EXPECT_LE(symbolic_nnz(a, a), multiply_flops(a, a));
}

TEST(Symbolic, EmptyProduct) {
  const CscMat a(10, 10);
  EXPECT_EQ(symbolic_nnz(a, a), 0);
}

TEST(Symbolic, PowerLawInput) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 4.0;
  p.seed = 63;
  const CscMat a = generate_rmat(p);
  const CscMat c = reference_multiply<PlusTimes>(a, a);
  EXPECT_EQ(symbolic_nnz(a, a), c.nnz());
}

TEST(Symbolic, AcceptsUnsortedInputs) {
  CscMat a(4, 2, {0, 3, 4}, {3, 0, 2, 1}, {1.0, 1.0, 1.0, 1.0});
  // Column 0 of A*A... build B referencing both columns unsorted.
  CscMat b(2, 1, {0, 2}, {1, 0}, {1.0, 1.0});
  const auto per_col = symbolic_column_nnz(a, b);
  EXPECT_EQ(per_col[0], 4);  // rows {3, 0, 2} from col 0 plus {1} from col 1
}

TEST(Symbolic, DenseAndHashSidesCountTheSame) {
  // A block no taller than its flops counts on the dense side; the same
  // block padded with empty rows past its flops counts on the hash side.
  RmatParams p;
  p.scale = 9;
  p.edge_factor = 4.0;
  p.seed = 64;
  for (const CscMat& a :
       {testing::random_matrix(80, 80, 6.0, 65), generate_rmat(p)}) {
    const Index flops = multiply_flops(a, a);
    ASSERT_TRUE(use_dense_rows(a.nrows(), flops));
    const CscMat tall = testing::pad_rows(a, flops);
    ASSERT_FALSE(use_dense_rows(tall.nrows(), flops));
    EXPECT_EQ(symbolic_column_nnz(a, a), symbolic_column_nnz(tall, a));
  }
}

}  // namespace
}  // namespace casp
