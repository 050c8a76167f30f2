#include "oracles/dense_matrix.hpp"

#include <cmath>

#include "util/error.hpp"

namespace thermo::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::from_rows(const std::vector<std::vector<double>>& rows) {
  THERMO_REQUIRE(!rows.empty(), "from_rows: need at least one row");
  const std::size_t cols = rows.front().size();
  DenseMatrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    THERMO_REQUIRE(rows[r].size() == cols, "from_rows: ragged rows");
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

double& DenseMatrix::at(std::size_t r, std::size_t c) {
  THERMO_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

double DenseMatrix::at(std::size_t r, std::size_t c) const {
  THERMO_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

Vector DenseMatrix::multiply(const Vector& x) const {
  THERMO_REQUIRE(x.size() == cols_, "multiply: dimension mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) sum += row[c] * x[c];
    y[r] = sum;
  }
  return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  THERMO_REQUIRE(cols_ == other.rows_, "multiply: dimension mismatch");
  DenseMatrix out(rows_, other.cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

void DenseMatrix::add_scaled(double alpha, const DenseMatrix& other) {
  THERMO_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                 "add_scaled: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

bool DenseMatrix::approx_equal(const DenseMatrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

bool DenseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

double DenseMatrix::norm_inf() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

}  // namespace thermo::linalg
