// Direct solvers: LU and Cholesky.
#include <gtest/gtest.h>

#include "oracles/cholesky.hpp"
#include "oracles/lu.hpp"
#include "oracles/vector_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::linalg {
namespace {

DenseMatrix random_spd(std::size_t n, Rng& rng) {
  // A = B Bᵗ + n·I is symmetric positive definite.
  DenseMatrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  DenseMatrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(Lu, SolvesKnownSystem) {
  const auto a = DenseMatrix::from_rows({{2.0, 1.0}, {1.0, 3.0}});
  const Vector x = lu_solve(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresSquareMatrix) {
  EXPECT_THROW(LuDecomposition(DenseMatrix(2, 3)), InvalidArgument);
}

TEST(Lu, SingularMatrixThrows) {
  const auto a = DenseMatrix::from_rows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_THROW(LuDecomposition{a}, NumericalError);
}

TEST(Lu, ZeroMatrixThrows) {
  EXPECT_THROW(LuDecomposition(DenseMatrix(3, 3, 0.0)), NumericalError);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  // Leading zero forces a row swap.
  const auto a = DenseMatrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  const Vector x = lu_solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DeterminantOfKnownMatrix) {
  const auto a = DenseMatrix::from_rows({{2.0, 0.0}, {0.0, 3.0}});
  EXPECT_NEAR(LuDecomposition(a).determinant(), 6.0, 1e-12);
}

TEST(Lu, DeterminantTracksPermutationSign) {
  const auto a = DenseMatrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_NEAR(LuDecomposition(a).determinant(), -1.0, 1e-12);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  Rng rng(1);
  const DenseMatrix a = random_spd(5, rng);
  const DenseMatrix inv = LuDecomposition(a).inverse();
  EXPECT_TRUE(a.multiply(inv).approx_equal(DenseMatrix::identity(5), 1e-9));
}

TEST(Lu, ResidualSmallOnRandomSystems) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_index(15));
    const DenseMatrix a = random_spd(n, rng);
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-5.0, 5.0);
    const Vector x = lu_solve(a, b);
    const Vector residual = subtract(b, a.multiply(x));
    EXPECT_LT(norm2(residual), 1e-9 * (1.0 + norm2(b)));
  }
}

TEST(Lu, MatrixRhsSolve) {
  Rng rng(3);
  const DenseMatrix a = random_spd(4, rng);
  const DenseMatrix x = LuDecomposition(a).solve(DenseMatrix::identity(4));
  EXPECT_TRUE(a.multiply(x).approx_equal(DenseMatrix::identity(4), 1e-9));
}

TEST(Lu, RhsSizeMismatchThrows) {
  const auto a = DenseMatrix::identity(3);
  EXPECT_THROW(LuDecomposition(a).solve(Vector{1.0}), InvalidArgument);
}

TEST(Cholesky, SolvesKnownSpdSystem) {
  const auto a = DenseMatrix::from_rows({{4.0, 2.0}, {2.0, 3.0}});
  const Vector x = cholesky_solve(a, {8.0, 7.0});
  EXPECT_NEAR(x[0], 1.25, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Cholesky, FactorReconstructsMatrix) {
  Rng rng(4);
  const DenseMatrix a = random_spd(6, rng);
  const CholeskyDecomposition chol(a);
  const DenseMatrix rebuilt = chol.l().multiply(chol.l().transposed());
  EXPECT_TRUE(rebuilt.approx_equal(a, 1e-9));
}

TEST(Cholesky, MatrixRhsSolve) {
  Rng rng(5);
  const DenseMatrix a = random_spd(4, rng);
  const CholeskyFactor chol(a);
  const DenseMatrix x = chol.solve(DenseMatrix::identity(4));
  EXPECT_TRUE(a.multiply(x).approx_equal(DenseMatrix::identity(4), 1e-9));
}

TEST(Cholesky, MatrixRhsRowMismatchThrows) {
  const auto a = DenseMatrix::from_rows({{4.0, 2.0}, {2.0, 3.0}});
  EXPECT_THROW(CholeskyFactor(a).solve(DenseMatrix(3, 2, 1.0)),
               InvalidArgument);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  const auto a = DenseMatrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_THROW(CholeskyDecomposition{a}, NumericalError);
}

TEST(Cholesky, RejectsNegativeDefinite) {
  const auto a = DenseMatrix::from_rows({{-1.0, 0.0}, {0.0, -1.0}});
  EXPECT_THROW(CholeskyDecomposition{a}, NumericalError);
}

TEST(Cholesky, RequiresSquare) {
  EXPECT_THROW(CholeskyDecomposition(DenseMatrix(2, 3)), InvalidArgument);
}

TEST(Cholesky, AgreesWithLuOnRandomSpdSystems) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_index(12));
    const DenseMatrix a = random_spd(n, rng);
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-3.0, 3.0);
    const Vector x_lu = lu_solve(a, b);
    const Vector x_chol = cholesky_solve(a, b);
    EXPECT_LT(norm_inf(subtract(x_lu, x_chol)), 1e-9);
  }
}

}  // namespace
}  // namespace thermo::linalg
