// Iterative solver for sparse SPD systems.
//
// A test reference: the thermal layer solves through a cached sparse
// factor (sparse_cholesky.hpp; docs/SOLVERS.md). Unlike a factor there
// is nothing to cache here — every solve restarts from scratch.
#pragma once

#include <cstddef>

#include "linalg/sparse.hpp"
#include "oracles/vector_ops.hpp"

namespace thermo::linalg {

struct IterativeOptions {
  /// Convergence is declared when the RELATIVE residual ||b - A x|| / ||b||
  /// (Euclidean norms) drops to `tolerance` or below; a zero rhs converges
  /// immediately to x = 0. This is a residual bound, not an error bound:
  /// the error in x can exceed it by the condition number of A.
  double tolerance = 1e-10;
  std::size_t max_iterations = 10000;
};

struct IterativeResult {
  Vector solution;
  std::size_t iterations = 0;
  double residual = 0.0;  ///< final relative residual
  bool converged = false;
};

/// Conjugate gradients with Jacobi (diagonal) preconditioning.
/// Requires a symmetric positive-definite matrix (not verified; CG on an
/// indefinite matrix typically stalls or diverges and reports
/// converged = false). Grounded thermal conductance matrices qualify.
IterativeResult conjugate_gradient(const SparseMatrix& a, const Vector& b,
                                   const IterativeOptions& options = {});

}  // namespace thermo::linalg
