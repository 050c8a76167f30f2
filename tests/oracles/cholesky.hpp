// Cholesky factorization for symmetric positive-definite systems.
//
// Thermal conductance matrices (after grounding the ambient node) are
// SPD. The thermal layer factors them sparsely (sparse_cholesky.hpp);
// this dense factor is the test oracle that path is checked against.
//
// Preconditions and cost (docs/SOLVERS.md):
//  * the input must be symmetric positive definite. Symmetry is NOT
//    verified (only the lower triangle is read); positive definiteness
//    is detected during factorization and reported as NumericalError.
//  * factorization is n^3/3 flops; each subsequent solve is two
//    triangular substitutions, 2 n^2 flops. When the matrix is reused
//    across many right-hand sides, keep the CholeskyFactor and call
//    solve() per rhs instead of the one-shot cholesky_solve().
#pragma once

#include "oracles/dense_matrix.hpp"

namespace thermo::linalg {

class CholeskyDecomposition {
 public:
  /// Factors A = L Lᵗ. Throws NumericalError when A is not (numerically)
  /// positive definite. Only the lower triangle of A is read.
  explicit CholeskyDecomposition(const DenseMatrix& a);

  std::size_t size() const { return l_.rows(); }

  /// Solves A x = b (two triangular substitutions; reusable, thread-safe).
  Vector solve(const Vector& b) const;

  /// Multi-RHS overload: solves A X = B column-by-column.
  DenseMatrix solve(const DenseMatrix& b) const;

  /// Lower-triangular factor.
  const DenseMatrix& l() const { return l_; }

 private:
  DenseMatrix l_;
};

/// "Factor once, solve many" is the intended usage; the alias names it.
using CholeskyFactor = CholeskyDecomposition;

/// One-shot convenience: solve SPD system A x = b (factors every call —
/// prefer a CholeskyFactor when the matrix is fixed across calls).
Vector cholesky_solve(const DenseMatrix& a, const Vector& b);

}  // namespace thermo::linalg
