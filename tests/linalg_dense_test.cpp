#include "oracles/dense_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracles/vector_ops.hpp"
#include "util/error.hpp"

namespace thermo::linalg {
namespace {

TEST(VectorOps, AxpyAddsScaledVector) {
  Vector x{1.0, 2.0}, y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(VectorOps, AxpySizeMismatchThrows) {
  Vector x{1.0}, y{1.0, 2.0};
  EXPECT_THROW(axpy(1.0, x, y), InvalidArgument);
}

TEST(VectorOps, DotAndNorms) {
  Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{-7.0, 2.0}), 7.0);
}

TEST(VectorOps, AddSubtractScale) {
  Vector a{1.0, 2.0}, b{0.5, 0.5};
  EXPECT_EQ(add(a, b), (Vector{1.5, 2.5}));
  EXPECT_EQ(subtract(a, b), (Vector{0.5, 1.5}));
  EXPECT_EQ(scale(2.0, b), (Vector{1.0, 1.0}));
}

TEST(VectorOps, AllFiniteDetectsNanAndInf) {
  EXPECT_TRUE(all_finite({1.0, -2.0}));
  EXPECT_FALSE(all_finite({1.0, std::nan("")}));
  EXPECT_FALSE(all_finite({1.0, std::numeric_limits<double>::infinity()}));
}

TEST(VectorOps, MaxElementRequiresNonEmpty) {
  EXPECT_THROW(max_element(Vector{}), InvalidArgument);
  EXPECT_DOUBLE_EQ(max_element(Vector{1.0, 9.0, 3.0}), 9.0);
}

TEST(DenseMatrix, ConstructionAndFill) {
  DenseMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

TEST(DenseMatrix, Identity) {
  const DenseMatrix eye = DenseMatrix::identity(3);
  EXPECT_DOUBLE_EQ(eye(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
  EXPECT_TRUE(eye.is_symmetric());
}

TEST(DenseMatrix, FromRowsRejectsRagged) {
  EXPECT_THROW(DenseMatrix::from_rows({{1.0, 2.0}, {3.0}}), InvalidArgument);
}

TEST(DenseMatrix, AtBoundsChecked) {
  DenseMatrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), InvalidArgument);
  EXPECT_THROW(m.at(0, 2), InvalidArgument);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(DenseMatrix, MatrixVectorProduct) {
  const auto m = DenseMatrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Vector y = m.multiply(Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(DenseMatrix, MatrixVectorDimensionMismatch) {
  const DenseMatrix m(2, 3);
  EXPECT_THROW(m.multiply(Vector{1.0, 2.0}), InvalidArgument);
}

TEST(DenseMatrix, MatrixMatrixProduct) {
  const auto a = DenseMatrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const auto b = DenseMatrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  const DenseMatrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(DenseMatrix, IdentityIsMultiplicativeNeutral) {
  const auto a = DenseMatrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_TRUE(a.multiply(DenseMatrix::identity(2)).approx_equal(a, 1e-15));
  EXPECT_TRUE(DenseMatrix::identity(2).multiply(a).approx_equal(a, 1e-15));
}

TEST(DenseMatrix, TransposeInvolution) {
  const auto a = DenseMatrix::from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  EXPECT_TRUE(a.transposed().transposed().approx_equal(a, 0.0));
  EXPECT_DOUBLE_EQ(a.transposed()(2, 1), 6.0);
}

TEST(DenseMatrix, AddScaled) {
  auto a = DenseMatrix::identity(2);
  a.add_scaled(2.0, DenseMatrix::identity(2));
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(DenseMatrix, SymmetryCheck) {
  auto m = DenseMatrix::from_rows({{2.0, 1.0}, {1.0, 2.0}});
  EXPECT_TRUE(m.is_symmetric());
  m(0, 1) = 1.1;
  EXPECT_FALSE(m.is_symmetric(1e-6));
}

TEST(DenseMatrix, NormInf) {
  const auto m = DenseMatrix::from_rows({{-5.0, 2.0}, {1.0, 3.0}});
  EXPECT_DOUBLE_EQ(m.norm_inf(), 5.0);
}

}  // namespace
}  // namespace thermo::linalg
