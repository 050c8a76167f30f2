// The sparse LDLᵗ as it was before the symbolic/numeric split: each
// factor copies its permutation, assembles P·A·Pᵗ through
// SparseMatrix::Builder, and runs its own elimination-tree pass, and the
// stepper assembles (C/dt + G) through a builder first. linalg::
// SparseCholeskyFactor and linalg::SparseImplicitStepper, which read A's
// values through a shared SymbolicCholesky instead, must give these
// factors' bits (tests/linalg_sparse_cholesky_test.cpp).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "linalg/sparse.hpp"
#include "linalg/sparse_cholesky.hpp"

namespace thermo::linalg {

class ReferenceCholeskyFactor {
 public:
  /// Factors A = L D Lᵗ after the permutation `permutation` (perm[k] =
  /// the original index eliminated k-th; empty for natural order).
  /// Throws InvalidArgument unless A is square and `permutation` is
  /// empty or a permutation of [0, n), NumericalError when A is not
  /// positive definite.
  ReferenceCholeskyFactor(const SparseMatrix& a,
                          std::vector<std::size_t> permutation);

  std::size_t size() const { return n_; }
  std::size_t factor_nonzeros() const { return values_.size(); }
  const std::vector<std::size_t>& permutation() const { return perm_; }

  Vector solve(const Vector& b) const;
  void solve_in_place(Vector& x, Vector& work) const;
  void solve_subset(std::span<const std::size_t> s, std::span<double> values,
                    PathScratch& scratch) const;
  Vector inverse_diagonal() const;

 private:
  void factor_ordered(const SparseMatrix& a);  // P·A·Pᵗ after perm_
  void factorize(const SparseMatrix& a);
  void substitute(Vector& x) const;  // L, D, Lᵗ in factor order

  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;      // position -> original index
  std::vector<std::size_t> inv_perm_;  // original index -> position
  std::vector<std::size_t> parent_;    // elimination tree, factor order
  std::vector<std::size_t> col_offsets_;  // size n_ + 1
  std::vector<std::size_t> row_indices_;
  std::vector<double> values_;
  std::vector<double> diag_;  // D
};

/// Backward Euler through (C/dt + G), assembled by a builder from G's
/// triplets and C/dt on the diagonal, factored after `permutation`.
class ReferenceImplicitStepper {
 public:
  ReferenceImplicitStepper(const SparseMatrix& g, const Vector& capacitance,
                           double dt, std::vector<std::size_t> permutation);

  std::size_t size() const { return c_over_dt_.size(); }
  const ReferenceCholeskyFactor& factor() const { return factor_; }

  Vector step(const Vector& y, const Vector& b) const;
  void step_in_place(Vector& y, const Vector& b, Vector& work) const;

 private:
  Vector c_over_dt_;
  double dt_;
  ReferenceCholeskyFactor factor_;
};

/// The first answer on which `factor` and `reference` differ in a bit,
/// or "" when none does: the fill, the permutation, solve(b), path
/// solves on single nodes and on a set, and inverse_diagonal().
std::string first_difference(const SparseCholeskyFactor& factor,
                             const ReferenceCholeskyFactor& reference,
                             const Vector& b);

/// The same for two steppers: their factors, then `steps` steps from
/// `y` under the constant rhs `b`.
std::string first_difference(const SparseImplicitStepper& stepper,
                             const ReferenceImplicitStepper& reference,
                             const Vector& y, const Vector& b, int steps);

}  // namespace thermo::linalg
