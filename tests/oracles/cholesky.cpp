#include "oracles/cholesky.hpp"

#include <cmath>

#include "util/error.hpp"

namespace thermo::linalg {

CholeskyDecomposition::CholeskyDecomposition(const DenseMatrix& a)
    : l_(a.rows(), a.cols(), 0.0) {
  THERMO_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l_(i, k) * l_(j, k);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          throw NumericalError(
              "Cholesky: matrix is not positive definite at row " +
              std::to_string(i));
        }
        l_(i, i) = std::sqrt(sum);
      } else {
        l_(i, j) = sum / l_(j, j);
      }
    }
  }
}

Vector CholeskyDecomposition::solve(const Vector& b) const {
  const std::size_t n = size();
  THERMO_REQUIRE(b.size() == n, "Cholesky solve: rhs size mismatch");
  // Forward: L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) sum -= l_(i, j) * y[j];
    y[i] = sum / l_(i, i);
  }
  // Backward: Lᵗ x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= l_(j, ii) * y[j];
    y[ii] = sum / l_(ii, ii);
  }
  return y;
}

DenseMatrix CholeskyDecomposition::solve(const DenseMatrix& b) const {
  THERMO_REQUIRE(b.rows() == size(), "Cholesky solve: rhs row mismatch");
  DenseMatrix x(b.rows(), b.cols());
  Vector column(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) column[r] = b(r, c);
    const Vector solved = solve(column);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = solved[r];
  }
  return x;
}

Vector cholesky_solve(const DenseMatrix& a, const Vector& b) {
  return CholeskyDecomposition(a).solve(b);
}

}  // namespace thermo::linalg
