// Sparse Cholesky factorization (LDLᵗ variant) for symmetric positive-
// definite systems in CSR form — the factorization every thermal solve
// uses; the dense Cholesky in tests/oracles/ is its test oracle.
//
// Thermal conductance matrices have ~5 off-diagonals per die row plus a
// handful of package rows that touch every die block. By default the
// factor applies a fill-reducing minimum-degree permutation
// (linalg/ordering.hpp) before the symbolic pass: the factorization
// runs on P·A·Pᵗ internally while solve() accepts and returns vectors
// in the ORIGINAL node order, so callers never see the permutation.
// factor_nonzeros() reports post-ordering fill. On a 64×64 grid model
// the ordering cuts nnz(L) from ~260k (natural, bandwidth-bound) to
// ~80k; on banded thermal numberings it never loses by much, and
// Ordering::kNatural remains available for baselines and tests.
//
// Preconditions and cost (docs/SOLVERS.md):
//  * the input must be symmetric positive definite. Symmetry is NOT
//    verified (only the lower triangle, col <= row, is read); a
//    non-positive pivot is detected during factorization and reported
//    as NumericalError.
//  * factorization is O(Σ |col j of L|²) flops — for thermal networks
//    effectively linear in n — versus n³/3 dense; each solve() is
//    2·nnz(L) flops versus 2 n² dense.
//  * the algorithm is the classic up-looking LDLᵗ over the elimination
//    tree (symbolic pass computes the tree + column counts, numeric
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
#include <optional>
#include <span>
#include <vector>

#include "linalg/sparse.hpp"

namespace thermo::linalg {

/// Fill-reducing ordering applied before the symbolic pass.
enum class Ordering {
  kNatural,    // factor A as given (baseline / debugging)
  kMinDegree,  // deterministic minimum-degree (linalg/ordering.hpp)
  kAuto,       // kMinDegree at/above kOrderingAutoMinNodes, else natural
};

/// Matrix size at and above which Ordering::kAuto applies min-degree.
/// Below it the fill win is negligible and natural order keeps small
/// models' historical bit-exact results (argmax tie-breaks included).
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

class SparseCholeskyFactor {
 public:
  /// Factors A = L D Lᵗ, by default after a fill-reducing
  /// minimum-degree permutation (applied internally; solve() works in
  /// the original index order). Throws InvalidArgument when A is not
  /// square, NumericalError when A is not (numerically) positive
  /// definite. Only the lower triangle of the (permuted) matrix is
  /// read numerically, but with kMinDegree the PATTERN of both
  /// triangles must be symmetric — true by construction for stamped
  /// conductance matrices.
  explicit SparseCholeskyFactor(const SparseMatrix& a,
                                Ordering ordering = Ordering::kAuto);

  /// Factors A = L D Lᵗ after a permutation computed elsewhere
  /// (perm[k] = the original index eliminated k-th): the
  /// min_degree_ordering of a matrix with A's pattern, shared by every
  /// matrix of that pattern, or empty for natural order. Bit-identical
  /// to the Ordering constructor that computes the same permutation;
  /// ordering() reports kMinDegree for a non-empty one. Throws
  /// InvalidArgument unless `permutation` is empty or a permutation of
  /// [0, n), and as the Ordering constructor does.
  SparseCholeskyFactor(const SparseMatrix& a,
                       std::vector<std::size_t> permutation);

  std::size_t size() const { return n_; }

  /// Strictly-lower-triangular non-zeros of L (the unit diagonal is
  /// implicit) — POST-ordering fill. Exposed so benches/tests can
  /// report fill.
  std::size_t factor_nonzeros() const { return values_.size(); }

  /// The ordering actually applied — kAuto is resolved at construction
  /// and never stored.
  Ordering ordering() const { return ordering_; }

  /// The fill-reducing permutation actually applied: perm()[k] is the
  /// original index eliminated k-th. Empty when factoring in natural
  /// order.
  const std::vector<std::size_t>& permutation() const { return perm_; }

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
  void factor_ordered(const SparseMatrix& a);  // P·A·Pᵗ after perm_
  void factorize(const SparseMatrix& a);
  void substitute(Vector& x) const;  // L, D, Lᵗ in factor order

  std::size_t n_ = 0;
  Ordering ordering_ = Ordering::kNatural;
  std::vector<std::size_t> perm_;      // position -> original index
  std::vector<std::size_t> inv_perm_;  // original index -> position
  std::vector<std::size_t> parent_;    // elimination tree, factor order
  // L in compressed-sparse-column form, strictly lower triangle, row
  // indices increasing within each column (the natural order in which
  // the up-looking algorithm emits them).
  std::vector<std::size_t> col_offsets_;  // size n_ + 1
  std::vector<std::size_t> row_indices_;
  std::vector<double> values_;
  std::vector<double> diag_;  // D
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
  /// Factors (C/dt + G); dt must be > 0, capacitance entries > 0, and
  /// G square, SPD, with capacitance.size() == G rows. Without a
  /// `permutation` the factor resolves Ordering::kAuto itself; with one
  /// it factors with that permutation (SparseCholeskyFactor's
  /// permutation constructor). Since C is diagonal and G's diagonal is
  /// structurally full, (C/dt + G) has G's pattern, so G's ordering
  /// (thermal::RCModel::ordering) serves every dt.
  SparseImplicitStepper(
      const SparseMatrix& g, const Vector& capacitance, double dt,
      std::optional<std::vector<std::size_t>> permutation = std::nullopt);

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
  Vector c_over_dt_;  // C/dt: the diagonal stamp, and y's factor per step
  double dt_;
  SparseCholeskyFactor factor_;
};

}  // namespace thermo::linalg
