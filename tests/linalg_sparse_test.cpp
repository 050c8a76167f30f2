#include "linalg/sparse.hpp"

#include <gtest/gtest.h>

#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/vector_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::linalg {
namespace {

SparseMatrix laplacian_chain(std::size_t n) {
  // 1-D resistor chain grounded at both ends: SPD and diagonally dominant.
  SparseMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.0 + 0.1 * static_cast<double>(i % 3));
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
      builder.add(i + 1, i, -1.0);
    }
  }
  return builder.build();
}

TEST(Sparse, BuilderSumsDuplicates) {
  SparseMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.5);
  builder.add(1, 0, -1.0);
  const SparseMatrix m = builder.build();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_EQ(m.nonzeros(), 2u);
}

TEST(Sparse, BuilderRejectsOutOfRange) {
  SparseMatrix::Builder builder(2, 2);
  EXPECT_THROW(builder.add(2, 0, 1.0), InvalidArgument);
  EXPECT_THROW(builder.add(0, 2, 1.0), InvalidArgument);
}

TEST(Sparse, EmptyRowsAreHandled) {
  SparseMatrix::Builder builder(3, 3);
  builder.add(2, 2, 1.0);  // rows 0 and 1 empty
  const SparseMatrix m = builder.build();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 1.0);
  const Vector y = m.multiply({1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(Sparse, MatVecMatchesDense) {
  Rng rng(6);
  DenseMatrix dense(7, 7, 0.0);
  for (int k = 0; k < 20; ++k) {
    dense(rng.uniform_index(7), rng.uniform_index(7)) = rng.uniform(-2.0, 2.0);
  }
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  Vector x(7);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  EXPECT_LT(norm_inf(subtract(dense.multiply(x), sparse.multiply(x))), 1e-14);
}

TEST(Sparse, FromDenseDropsZeros) {
  DenseMatrix dense(2, 2, 0.0);
  dense(0, 0) = 1.0;
  EXPECT_EQ(SparseMatrix::from_dense(dense).nonzeros(), 1u);
}

TEST(Sparse, ToDenseRoundTrip) {
  const SparseMatrix m = laplacian_chain(5);
  const SparseMatrix again = SparseMatrix::from_dense(m.to_dense());
  EXPECT_EQ(again.nonzeros(), m.nonzeros());
  EXPECT_DOUBLE_EQ(again.at(2, 3), m.at(2, 3));
}

TEST(Sparse, DiagonalExtraction) {
  const SparseMatrix m = laplacian_chain(4);
  const Vector d = m.diagonal();
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 2.1);
}

TEST(Sparse, SymmetryCheck) {
  EXPECT_TRUE(laplacian_chain(6).is_symmetric());
  SparseMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, 1.0);
  builder.add(0, 1, 0.5);
  EXPECT_FALSE(builder.build().is_symmetric());
}

TEST(Iterative, CgMatchesLuOnChain) {
  const SparseMatrix a = laplacian_chain(30);
  Vector b(30, 1.0);
  const IterativeResult cg = conjugate_gradient(a, b);
  EXPECT_TRUE(cg.converged);
  const Vector x_lu = lu_solve(a.to_dense(), b);
  EXPECT_LT(norm_inf(subtract(cg.solution, x_lu)), 1e-6);
}

TEST(Iterative, ZeroRhsIsImmediatelyConverged) {
  const SparseMatrix a = laplacian_chain(5);
  const IterativeResult cg = conjugate_gradient(a, Vector(5, 0.0));
  EXPECT_TRUE(cg.converged);
  EXPECT_EQ(cg.iterations, 0u);
  EXPECT_LT(norm2(cg.solution), 1e-15);
}

TEST(Iterative, CgRejectsIndefiniteMatrix) {
  SparseMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, -1.0);
  EXPECT_THROW(conjugate_gradient(builder.build(), {1.0, 1.0}),
               NumericalError);
}

TEST(Iterative, ZeroDiagonalThrows) {
  SparseMatrix::Builder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  const SparseMatrix a = builder.build();
  EXPECT_THROW(conjugate_gradient(a, {1.0, 1.0}), NumericalError);
}

TEST(Iterative, IterationCapReportsNonConvergence) {
  const SparseMatrix a = laplacian_chain(40);
  IterativeOptions options;
  options.max_iterations = 1;
  options.tolerance = 1e-14;
  const IterativeResult r = conjugate_gradient(a, Vector(40, 1.0), options);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
}

TEST(Iterative, RhsSizeMismatchThrows) {
  const SparseMatrix a = laplacian_chain(4);
  EXPECT_THROW(conjugate_gradient(a, Vector(3, 1.0)), InvalidArgument);
}

}  // namespace
}  // namespace thermo::linalg
