#include "linalg/sparse_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace thermo::linalg {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

}  // namespace

SymbolicCholesky::SymbolicCholesky(const SparseMatrix& a,
                                   std::vector<std::size_t> permutation)
    : n_(a.rows()),
      perm_(std::move(permutation)),
      row_offsets_(a.row_offsets()),
      col_indices_(a.col_indices()) {
  THERMO_REQUIRE(a.rows() == a.cols(), "sparse cholesky: matrix must be square");
  THERMO_REQUIRE(perm_.empty() || perm_.size() == n_,
                 "sparse cholesky: permutation size must match the matrix");
  inv_perm_.assign(n_, kNone);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t i = perm_.empty() ? k : perm_[k];
    THERMO_REQUIRE(i < n_ && inv_perm_[i] == kNone,
                   "sparse cholesky: ordering is not a permutation");
    inv_perm_[i] = k;
  }
  // P·A·Pᵗ's lower triangle sorted by (row, col): the order of a CSR
  // matrix assembled from it, which fixes the order of the numeric
  // pass's updates and so its bits.
  gather_.reserve((a.nonzeros() + n_) / 2);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t q = row_offsets_[r]; q < row_offsets_[r + 1]; ++q) {
      const std::size_t col = inv_perm_[col_indices_[q]];
      if (col <= inv_perm_[r]) gather_.push_back({inv_perm_[r], col, q});
    }
  }
  std::sort(gather_.begin(), gather_.end(), [](const Entry& x, const Entry& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });

  // Elimination tree (kept for the path solves) and per-column non-zero
  // counts of L. Row k of the strictly-lower triangle reaches column k
  // of L through tree paths; walking each entry's column up to the root
  // marked with `flag == k` visits every L column that gains an entry in
  // row k.
  parent_.assign(n_, kNone);
  std::vector<std::size_t> flag(n_, kNone);
  col_offsets_.assign(n_ + 1, 0);  // column j's count in [j + 1] first
  for (const auto& [k, col, source] : gather_) {
    flag[k] = k;
    for (std::size_t i = col; flag[i] != k; i = parent_[i]) {
      if (parent_[i] == kNone) parent_[i] = k;
      ++col_offsets_[i + 1];
      flag[i] = k;
    }
  }
  for (std::size_t j = 0; j < n_; ++j) col_offsets_[j + 1] += col_offsets_[j];
}

SparseCholeskyFactor::SparseCholeskyFactor(
    std::shared_ptr<const SymbolicCholesky> symbolic, const SparseMatrix& a)
    : SparseCholeskyFactor(std::move(symbolic), a, {}) {}

SparseCholeskyFactor::SparseCholeskyFactor(
    std::shared_ptr<const SymbolicCholesky> symbolic, const SparseMatrix& a,
    std::span<const double> shift)
    : symbolic_(std::move(symbolic)) {
  THERMO_REQUIRE(symbolic_ != nullptr, "sparse cholesky: no symbolic analysis");
  const SymbolicCholesky& sym = *symbolic_;
  THERMO_REQUIRE(a.rows() == sym.n_ && a.cols() == sym.n_ &&
                     a.row_offsets() == sym.row_offsets_ &&
                     a.col_indices() == sym.col_indices_,
                 "sparse cholesky: matrix pattern differs from its analysis");
  const std::size_t n = sym.n_;
  const std::vector<std::size_t>& parent = sym.parent_;
  const std::vector<std::size_t>& col_offsets = sym.col_offsets_;
  const std::vector<double>& ax = a.values();
  row_indices_.assign(col_offsets[n], 0);
  values_.assign(col_offsets[n], 0.0);
  diag_.assign(n, 0.0);

  // Numeric pass (up-looking): for each row k, scatter the strictly-
  // lower entries of row k into the dense work vector y, recover the
  // non-zero pattern of L's row k in topological order via the
  // elimination tree, then eliminate column by column.
  std::vector<double> y(n, 0.0);
  std::vector<std::size_t> pattern(n, 0);
  std::vector<std::size_t> filled(n, 0);  // entries of column j emitted so far
  std::vector<std::size_t> flag(n, kNone);
  auto entry = sym.gather_.begin();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t top = n;
    double dk = 0.0;
    flag[k] = k;
    for (; entry != sym.gather_.end() && entry->row == k; ++entry) {
      const std::size_t col = entry->col;
      if (col == k) {
        dk += ax[entry->source];
        continue;
      }
      y[col] += ax[entry->source];
      std::size_t len = 0;
      for (std::size_t i = col; flag[i] != k; i = parent[i]) {
        pattern[len++] = i;
        flag[i] = k;
      }
      while (len > 0) pattern[--top] = pattern[--len];
    }
    if (!shift.empty()) dk += shift[sym.perm_.empty() ? k : sym.perm_[k]];
    for (std::size_t p = top; p < n; ++p) {
      const std::size_t i = pattern[p];
      const double yi = y[i];
      y[i] = 0.0;
      const double lki = yi / diag_[i];
      for (std::size_t q = col_offsets[i]; q < col_offsets[i] + filled[i];
           ++q) {
        y[row_indices_[q]] -= values_[q] * yi;
      }
      dk -= lki * yi;
      row_indices_[col_offsets[i] + filled[i]] = k;
      values_[col_offsets[i] + filled[i]] = lki;
      ++filled[i];
    }
    if (!(dk > 0.0) || !std::isfinite(dk)) {
      throw NumericalError(
          "sparse cholesky: matrix is not positive definite (pivot " +
          std::to_string(dk) + " at row " + std::to_string(k) + ")");
    }
    diag_[k] = dk;
  }
}

Vector SparseCholeskyFactor::solve(const Vector& b) const {
  Vector x = b;
  Vector work;
  solve_in_place(x, work);
  return x;
}

void SparseCholeskyFactor::solve_in_place(Vector& x, Vector& work) const {
  const std::size_t n = size();
  THERMO_REQUIRE(x.size() == n, "sparse cholesky solve: size mismatch");
  const std::vector<std::size_t>& perm = symbolic_->perm_;
  if (perm.empty()) {
    substitute(x.data());
    return;
  }
  // Permute into factor order, substitute, permute back.
  work.resize(n);
  for (std::size_t k = 0; k < n; ++k) work[k] = x[perm[k]];
  substitute(work.data());
  for (std::size_t k = 0; k < n; ++k) x[perm[k]] = work[k];
}

void SparseCholeskyFactor::solve_subset(std::span<const std::size_t> s,
                                        std::span<double> values,
                                        PathScratch& scratch) const {
  const std::size_t n = size();
  THERMO_REQUIRE(s.size() == values.size(),
                 "sparse cholesky path solve: size mismatch");
  THERMO_REQUIRE(scratch.x.size() == n && scratch.on_path.size() == n,
                 "sparse cholesky path solve: scratch size mismatch");
  for (const std::size_t i : s) {
    THERMO_REQUIRE(i < n, "sparse cholesky path solve: index out of range");
  }
  const std::size_t* const position = symbolic_->inv_perm_.data();
  const std::size_t* const parent = symbolic_->parent_.data();
  const std::size_t* const cp = symbolic_->col_offsets_.data();
  const std::size_t* const ri = row_indices_.data();
  const double* const lx = values_.data();
  // Mark the union of the paths; each walk stops at the first node an
  // earlier walk already marked, since the rest of its path is marked too.
  std::vector<std::size_t>& path = scratch.path;
  for (const std::size_t i : s) {
    for (std::size_t j = position[i];
         j != kNone && scratch.on_path[j] == 0; j = parent[j]) {
      scratch.on_path[j] = 1;
      path.push_back(j);
    }
  }
  // substitute() restricted to the union: every column off it holds +0
  // in the full solve, so its updates are exact no-ops, and the kept
  // updates run in the same order. One path is already ascending; a
  // union is listed in order by scanning the marks from its lowest node,
  // which beats sorting it on validation unions (most of the tree).
  if (s.size() > 1) {
    std::size_t lo = n;
    for (const std::size_t i : s) lo = std::min(lo, position[i]);
    path.clear();
    for (std::size_t j = lo; j < n; ++j) {
      if (scratch.on_path[j] != 0) path.push_back(j);
    }
  }
  double* const x = scratch.x.data();
  for (std::size_t t = 0; t < s.size(); ++t) {
    x[position[s[t]]] = values[t];
  }
  for (const std::size_t j : path) {
    const double xj = x[j];
    for (std::size_t q = cp[j]; q < cp[j + 1]; ++q) {
      x[ri[q]] -= lx[q] * xj;
    }
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const std::size_t j = *it;
    double sum = x[j] / diag_[j];  // D, then Lᵗ: ancestors are final
    for (std::size_t q = cp[j]; q < cp[j + 1]; ++q) {
      sum -= lx[q] * x[ri[q]];
    }
    x[j] = sum;
  }
  for (std::size_t t = 0; t < s.size(); ++t) {
    values[t] = x[position[s[t]]];
  }
  for (const std::size_t j : path) {
    x[j] = 0.0;
    scratch.on_path[j] = 0;
  }
  path.clear();
}

Vector SparseCholeskyFactor::inverse_diagonal() const {
  // Z = A⁻¹ on L's pattern, in factor order: z[q] is Z at L's entry q
  // (row ri[q] of column j), z_diag the diagonal. Column j of the upper
  // triangle only reads Z on struct(L_j) × struct(L_j), which later
  // columns already filled: for i < k in struct(L_j), k is in
  // struct(L_i), so Z_ki sits at an entry of column i.
  const std::size_t n = size();
  const std::size_t* const cp = symbolic_->col_offsets_.data();
  const std::size_t* const ri = row_indices_.data();
  const double* const lx = values_.data();
  std::vector<double> z(values_.size(), 0.0);
  Vector z_diag(n, 0.0);
  Vector l(n, 0.0);    // column j of L, scattered
  Vector acc(n, 0.0);  // Σ_k L_kj Z_ki over struct(L_j), per i
  std::vector<std::size_t> mark(n, kNone);
  for (std::size_t j = n; j-- > 0;) {
    const std::size_t begin = cp[j];
    const std::size_t end = cp[j + 1];
    for (std::size_t q = begin; q < end; ++q) {
      const std::size_t i = ri[q];
      l[i] = lx[q];
      acc[i] = 0.0;
      mark[i] = j;
    }
    for (std::size_t q = begin; q < end; ++q) {
      const std::size_t i = ri[q];
      const double lij = lx[q];
      acc[i] += lij * z_diag[i];
      for (std::size_t p = cp[i]; p < cp[i + 1]; ++p) {
        const std::size_t k = ri[p];
        if (mark[k] != j) continue;
        acc[i] += l[k] * z[p];  // L_kj Z_ki
        acc[k] += lij * z[p];   // L_ij Z_ik, by symmetry
      }
    }
    double zjj = 1.0 / diag_[j];
    for (std::size_t q = begin; q < end; ++q) {
      z[q] = -acc[ri[q]];
      zjj -= lx[q] * z[q];
    }
    z_diag[j] = zjj;
  }
  const std::vector<std::size_t>& perm = symbolic_->perm_;
  if (perm.empty()) return z_diag;
  Vector out(n);
  for (std::size_t k = 0; k < n; ++k) out[perm[k]] = z_diag[k];
  return out;
}

void SparseCholeskyFactor::substitute(double* x) const {
  const std::size_t n = size();
  const std::size_t* const cp = symbolic_->col_offsets_.data();
  const std::size_t* const ri = row_indices_.data();
  const double* const lx = values_.data();
  const double* const d = diag_.data();
  // L z = b (unit diagonal implicit).
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = x[j];
    for (std::size_t q = cp[j]; q < cp[j + 1]; ++q) {
      x[ri[q]] -= lx[q] * xj;
    }
  }
  // D w = z.
  for (std::size_t j = 0; j < n; ++j) x[j] /= d[j];
  // Lᵗ x = w.
  for (std::size_t j = n; j-- > 0;) {
    double sum = x[j];
    for (std::size_t q = cp[j]; q < cp[j + 1]; ++q) {
      sum -= lx[q] * x[ri[q]];
    }
    x[j] = sum;
  }
}

SparseImplicitStepper::SparseImplicitStepper(
    std::shared_ptr<const SymbolicCholesky> symbolic, const SparseMatrix& g,
    const Vector& capacitance, double dt)
    : c_over_dt_(capacitance),
      dt_(dt),
      factor_([&] {
        THERMO_REQUIRE(g.rows() == g.cols(), "stepper: G must be square");
        THERMO_REQUIRE(capacitance.size() == g.rows(),
                       "stepper: capacitance size mismatch");
        THERMO_REQUIRE(dt > 0.0, "stepper: dt must be positive");
        for (double& c : c_over_dt_) {
          THERMO_REQUIRE(c > 0.0, "stepper: capacitances must be positive");
          c /= dt;
        }
        // (C/dt + G) has G's pattern (C is diagonal): the factor reads
        // G's values through the shared analysis and adds C/dt to each
        // pivot.
        return SparseCholeskyFactor(std::move(symbolic), g, c_over_dt_);
      }()) {}

Vector SparseImplicitStepper::step(const Vector& y, const Vector& b) const {
  Vector next = y;
  Vector work;
  step_in_place(next, b, work);
  return next;
}

void SparseImplicitStepper::step_in_place(Vector& y, const Vector& b,
                                          Vector& work) const {
  THERMO_REQUIRE(y.size() == size(), "stepper: state size mismatch");
  THERMO_REQUIRE(b.size() == size(), "stepper: rhs size mismatch");
  // (C/dt + G) y_next = C/dt y + b, the right-hand side built over y.
  for (std::size_t i = 0; i < size(); ++i) {
    y[i] = c_over_dt_[i] * y[i] + b[i];
  }
  factor_.solve_in_place(y, work);
}

}  // namespace thermo::linalg
