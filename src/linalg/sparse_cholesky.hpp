// Sparse Cholesky factorization (LDLᵗ variant) for symmetric positive-
// definite systems in CSR form — the factorization every thermal solve
// uses; the dense Cholesky in tests/oracles/ is its test oracle.
//
// Symbolic and numeric work are split (George & Liu 1981; Davis 2006).
// SymbolicCholesky analyzes a pattern under an elimination order and
// reads no values, so every matrix of the pattern shares one: a thermal
// model's G and each backward-Euler (C/dt + G), as C is diagonal
// (thermal::SteadyFactorSlot builds it and picks the order).
// SparseCholeskyFactor is the numeric factor of one such matrix; it runs
// on P·A·Pᵗ internally while solve() works in the ORIGINAL node order.
// On a 64×64 grid model minimum-degree order cuts nnz(L) from ~260k
// (natural, bandwidth-bound) to ~80k.
//
// Preconditions and cost (docs/SOLVERS.md):
//  * the input must be symmetric positive definite. Symmetry is NOT
//    verified (only the lower triangle of P·A·Pᵗ is read); a
//    non-positive pivot is detected during factorization and reported
//    as NumericalError.
//  * factorization is O(Σ |col j of L|²) flops — for thermal networks
//    effectively linear in n — versus n³/3 dense; each solve() is
//    2·nnz(L) flops versus 2 n² dense.
//  * the algorithm is the classic up-looking LDLᵗ over the elimination
//    tree (the analysis holds the tree and column counts, the numeric
//    pass fills L column by column). A = L·D·Lᵗ with unit-lower L and
//    diagonal D, so no square roots are taken; solve() is forward
//    substitution, a diagonal scale, and back substitution.
//  * solve_subset() returns the entries on a set S of A⁻¹·b, for b
//    supported on S, by walking only the union of S's elimination-tree
//    paths: Σ over the union of |col j of L| flops twice, bit-identical
//    to solve() on S (docs/SOLVERS.md "Path solves").
//  * inverse_diagonal() returns diag(A⁻¹) by selected inversion on L's
//    own column pattern: O(Σ |col j of L|²), the factorization's order
//    (docs/SOLVERS.md "Self-resistance table").
//  * solve() is const, deterministic, and thread-safe — the factor is
//    shareable across sweep workers (an RCModel owns its factor of G;
//    thermal::ThermalSolverCache keys the steppers by model identity).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/sparse.hpp"

namespace thermo::linalg {

/// Matrix size at and above which a thermal model factors in
/// minimum-degree order (thermal::SteadyFactorSlot). Below it the fill
/// win is negligible and natural order keeps small models' historical
/// bit-exact results (argmax tie-breaks included).
inline constexpr std::size_t kOrderingAutoMinNodes = 64;

/// Caller-owned workspace of SparseCholeskyFactor's path solves: sized
/// to the factor, all zero (and `path` empty) between calls. Reusing one
/// keeps path solves allocation-free; it is not shareable across
/// threads.
struct PathScratch {
  explicit PathScratch(std::size_t n = 0) : x(n, 0.0), on_path(n, 0) {}
  Vector x;
  std::vector<unsigned char> on_path;
  std::vector<std::size_t> path;
};

/// The symbolic analysis of one square pattern under one elimination
/// order, shared by every factor of a matrix with that pattern.
class SymbolicCholesky {
 public:
  /// Analyzes `a`'s pattern for the order `permutation` (perm[k] = the
  /// original index eliminated k-th, e.g. min_degree_ordering(a); empty
  /// for natural order). Throws InvalidArgument unless `a` is square and
  /// `permutation` is empty or a permutation of [0, n). The pattern must
  /// be symmetric, as stamped conductance matrices are.
  SymbolicCholesky(const SparseMatrix& a, std::vector<std::size_t> permutation);

  std::size_t size() const { return n_; }

  /// The elimination order: permutation()[k] is the original index
  /// eliminated k-th. Empty in natural order.
  const std::vector<std::size_t>& permutation() const { return perm_; }

 private:
  friend class SparseCholeskyFactor;

  /// Entry (row, col), col <= row, of P·A·Pᵗ: A's values[source].
  struct Entry {
    std::size_t row;
    std::size_t col;
    std::size_t source;
  };

  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;      // position -> original index
  std::vector<std::size_t> inv_perm_;  // original index -> position
  std::vector<std::size_t> parent_;    // elimination tree, factor order
  std::vector<std::size_t> col_offsets_;  // L's columns, size n_ + 1
  std::vector<Entry> gather_;  // P·A·Pᵗ's lower triangle by (row, col)
  // The analysed pattern, which every factored matrix must have.
  std::vector<std::size_t> row_offsets_;
  std::vector<std::size_t> col_indices_;
};

class SparseCholeskyFactor {
 public:
  /// Factors A = L D Lᵗ through `symbolic`, an analysis of A's pattern,
  /// which the factor shares. Throws InvalidArgument when `symbolic` is
  /// null or of another pattern, NumericalError when A is not
  /// (numerically) positive definite.
  SparseCholeskyFactor(std::shared_ptr<const SymbolicCholesky> symbolic,
                       const SparseMatrix& a);

  std::size_t size() const { return symbolic_->size(); }

  /// The analysis the factor was built on (its order and tree).
  const SymbolicCholesky& symbolic() const { return *symbolic_; }

  /// Strictly-lower-triangular non-zeros of L (the unit diagonal is
  /// implicit) — POST-ordering fill. Exposed so benches/tests can
  /// report fill.
  std::size_t factor_nonzeros() const { return values_.size(); }

  /// Solves A x = b (forward + diagonal + backward substitution;
  /// reusable, thread-safe). b and x are in the original index order.
  Vector solve(const Vector& b) const;

  /// solve() in place: `x` holds b on entry and the solution on return.
  /// `work` is caller-owned scratch for the permuted vector (sized on
  /// first use), so a loop that reuses it allocates nothing. solve() is
  /// this call on a copy of b, so the two are bit-identical.
  void solve_in_place(Vector& x, Vector& work) const;

  /// Path solve: for distinct indices s and b supported on them
  /// (b[s[t]] = values[t], zero elsewhere), overwrites values[t] with
  /// x[s[t]] of A x = b, bit-identical to solve(b)[s[t]]. Forward
  /// substitution only touches the union of the s[t]'s paths to the
  /// root of the elimination tree (closed under ancestors), and the
  /// backward entries on s only read that union, so it walks the union
  /// alone, in ascending order. `scratch` must be PathScratch(size());
  /// it is all zero again on return.
  void solve_subset(std::span<const std::size_t> s, std::span<double> values,
                    PathScratch& scratch) const;

  /// diag(A⁻¹) in the original index order, by selected inversion
  /// (Takahashi, Fagan & Chin 1973; Erisman & Tinney 1975): the
  /// recurrence Z = D⁻¹L⁻¹ + (I − Lᵗ)Z, run backwards over the columns of
  /// L, computes Z = A⁻¹ on L's pattern (closed under it) and nowhere
  /// else. Σ |col j of L|² flops, no symbolic pass. Entries agree with
  /// solve(eᵢ)[i] to rounding, not bit for bit.
  Vector inverse_diagonal() const;

 private:
  friend class SparseImplicitStepper;

  /// Factors A + diag(shift) (the stepper's C/dt + G; shift empty for
  /// A itself): row k's pivot starts from fl(a_kk + shift_k).
  SparseCholeskyFactor(std::shared_ptr<const SymbolicCholesky> symbolic,
                       const SparseMatrix& a, std::span<const double> shift);

  void substitute(double* x) const;  // L, D, Lᵗ in factor order

  std::shared_ptr<const SymbolicCholesky> symbolic_;
  // L's row indices, increasing within each column (the order in which
  // the up-looking algorithm emits them), and values; D.
  std::vector<std::size_t> row_indices_;
  std::vector<double> values_;
  std::vector<double> diag_;
};

/// Backward-Euler stepper for the linear constant-coefficient system
///     C dy/dt = b - G y
/// with diagonal capacitance C and SPARSE SPD G: factors (C/dt + G)
/// once with SparseCholeskyFactor and back-substitutes per step. Same
/// step() semantics as the dense LinearImplicitStepper
/// (tests/oracles/ode.hpp), its test oracle; step() is const and
/// thread-safe.
class SparseImplicitStepper {
 public:
  /// Factors (C/dt + G) through `symbolic`, the analysis of G's
  /// pattern, which (C/dt + G) shares as C is diagonal: each pivot starts
  /// from fl(gᵢᵢ + cᵢ/dt). dt must be > 0, capacitance entries > 0, and
  /// G square, SPD, with capacitance.size() == G rows.
  SparseImplicitStepper(std::shared_ptr<const SymbolicCholesky> symbolic,
                        const SparseMatrix& g, const Vector& capacitance,
                        double dt);

  double dt() const { return dt_; }
  std::size_t size() const { return c_over_dt_.size(); }
  const SparseCholeskyFactor& factor() const { return factor_; }

  /// Advances one step: returns y(t + dt) given y(t) and constant rhs b.
  /// A wrapper over step_in_place.
  Vector step(const Vector& y, const Vector& b) const;

  /// step() through caller-owned buffers: `y` holds y(t) on entry and
  /// y(t + dt) on return, and `work` is SparseCholeskyFactor::
  /// solve_in_place's scratch. A stepping loop that reuses both
  /// allocates nothing per step.
  void step_in_place(Vector& y, const Vector& b, Vector& work) const;

 private:
  Vector c_over_dt_;  // C/dt: the diagonal shift, and y's factor per step
  double dt_;
  SparseCholeskyFactor factor_;
};

}  // namespace thermo::linalg
