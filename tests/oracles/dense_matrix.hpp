// Row-major dense matrix. Sized for thermal networks (tens to a few
// thousand nodes); no SIMD heroics, just cache-friendly loops.
#pragma once

#include <cstddef>
#include <vector>

#include "oracles/vector_ops.hpp"

namespace thermo::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Identity matrix of size n.
  static DenseMatrix identity(std::size_t n);

  /// Builds from a nested initializer-style container (rows of equal width).
  static DenseMatrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Unchecked access for hot loops.
  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Matrix-vector product.
  Vector multiply(const Vector& x) const;

  /// Matrix-matrix product.
  DenseMatrix multiply(const DenseMatrix& other) const;

  DenseMatrix transposed() const;

  /// this += alpha * other (same shape).
  void add_scaled(double alpha, const DenseMatrix& other);

  /// True when |a-b| <= tol element-wise (same shape required).
  bool approx_equal(const DenseMatrix& other, double tol) const;

  /// True when the matrix equals its transpose within tol.
  bool is_symmetric(double tol = 1e-12) const;

  /// Max-magnitude entry.
  double norm_inf() const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace thermo::linalg
