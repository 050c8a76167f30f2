#include "oracles/reference_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace thermo::linalg {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// c / dt, entry by entry: the stepper's diagonal stamp and its per-step
/// right-hand-side factor, computed once.
Vector divided(const Vector& c, double dt) {
  Vector out(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) out[i] = c[i] / dt;
  return out;
}

}  // namespace

ReferenceCholeskyFactor::ReferenceCholeskyFactor(const SparseMatrix& a,
                                           std::vector<std::size_t> permutation)
    : perm_(std::move(permutation)) {
  THERMO_REQUIRE(a.rows() == a.cols(), "sparse cholesky: matrix must be square");
  n_ = a.rows();
  THERMO_REQUIRE(perm_.empty() || perm_.size() == n_,
                 "sparse cholesky: permutation size must match the matrix");
  factor_ordered(a);
}

void ReferenceCholeskyFactor::factor_ordered(const SparseMatrix& a) {
  if (perm_.empty()) {
    factorize(a);
    return;
  }
  inv_perm_.assign(n_, kNone);
  for (std::size_t k = 0; k < n_; ++k) {
    THERMO_REQUIRE(perm_[k] < n_ && inv_perm_[perm_[k]] == kNone,
                   "sparse cholesky: ordering is not a permutation");
    inv_perm_[perm_[k]] = k;
  }
  // Assemble P·A·Pᵗ through the builder (A carries both triangles,
  // so the permuted matrix does too; no duplicates arise).
  SparseMatrix::Builder builder(n_, n_);
  builder.reserve(a.nonzeros());
  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();
  const std::vector<double>& ax = a.values();
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t q = ap[r]; q < ap[r + 1]; ++q) {
      builder.add(inv_perm_[r], inv_perm_[ai[q]], ax[q]);
    }
  }
  factorize(builder.build());
}

void ReferenceCholeskyFactor::factorize(const SparseMatrix& a) {
  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();
  const std::vector<double>& ax = a.values();

  // Symbolic pass: elimination tree (kept for the path solves) and
  // per-column non-zero counts of L.
  // Row k of A's strictly-lower triangle reaches column k of L through
  // tree paths; walking each entry's column up to the root marked with
  // `flag == k` visits every L column that gains an entry in row k.
  parent_.assign(n_, kNone);
  std::vector<std::size_t> flag(n_, kNone);
  std::vector<std::size_t> count(n_, 0);
  for (std::size_t k = 0; k < n_; ++k) {
    flag[k] = k;
    for (std::size_t p = ap[k]; p < ap[k + 1]; ++p) {
      std::size_t i = ai[p];
      if (i >= k) continue;
      for (; flag[i] != k; i = parent_[i]) {
        if (parent_[i] == kNone) parent_[i] = k;
        ++count[i];
        flag[i] = k;
      }
    }
  }

  col_offsets_.assign(n_ + 1, 0);
  for (std::size_t j = 0; j < n_; ++j) {
    col_offsets_[j + 1] = col_offsets_[j] + count[j];
  }
  row_indices_.assign(col_offsets_[n_], 0);
  values_.assign(col_offsets_[n_], 0.0);
  diag_.assign(n_, 0.0);

  // Numeric pass (up-looking): for each row k, scatter the strictly-
  // lower entries of A's row k into the dense work vector y, recover
  // the non-zero pattern of L's row k in topological order via the
  // elimination tree, then eliminate column by column.
  std::vector<double> y(n_, 0.0);
  std::vector<std::size_t> pattern(n_, 0);
  std::vector<std::size_t> filled(n_, 0);  // entries of column j emitted so far
  std::fill(flag.begin(), flag.end(), kNone);
  for (std::size_t k = 0; k < n_; ++k) {
    std::size_t top = n_;
    double dk = 0.0;
    flag[k] = k;
    for (std::size_t p = ap[k]; p < ap[k + 1]; ++p) {
      const std::size_t col = ai[p];
      if (col > k) continue;  // only the lower triangle is read
      if (col == k) {
        dk += ax[p];
        continue;
      }
      y[col] += ax[p];
      std::size_t len = 0;
      for (std::size_t i = col; flag[i] != k; i = parent_[i]) {
        pattern[len++] = i;
        flag[i] = k;
      }
      while (len > 0) pattern[--top] = pattern[--len];
    }
    for (std::size_t p = top; p < n_; ++p) {
      const std::size_t i = pattern[p];
      const double yi = y[i];
      y[i] = 0.0;
      const double lki = yi / diag_[i];
      for (std::size_t q = col_offsets_[i]; q < col_offsets_[i] + filled[i];
           ++q) {
        y[row_indices_[q]] -= values_[q] * yi;
      }
      dk -= lki * yi;
      row_indices_[col_offsets_[i] + filled[i]] = k;
      values_[col_offsets_[i] + filled[i]] = lki;
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

Vector ReferenceCholeskyFactor::solve(const Vector& b) const {
  Vector x = b;
  Vector work;
  solve_in_place(x, work);
  return x;
}

void ReferenceCholeskyFactor::solve_in_place(Vector& x, Vector& work) const {
  THERMO_REQUIRE(x.size() == n_, "sparse cholesky solve: size mismatch");
  if (perm_.empty()) {
    substitute(x);
    return;
  }
  // Permute into factor order, substitute, permute back.
  work.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) work[k] = x[perm_[k]];
  substitute(work);
  for (std::size_t k = 0; k < n_; ++k) x[perm_[k]] = work[k];
}

void ReferenceCholeskyFactor::solve_subset(std::span<const std::size_t> s,
                                        std::span<double> values,
                                        PathScratch& scratch) const {
  THERMO_REQUIRE(s.size() == values.size(),
                 "sparse cholesky path solve: size mismatch");
  THERMO_REQUIRE(scratch.x.size() == n_ && scratch.on_path.size() == n_,
                 "sparse cholesky path solve: scratch size mismatch");
  for (const std::size_t i : s) {
    THERMO_REQUIRE(i < n_, "sparse cholesky path solve: index out of range");
  }
  const auto position = [&](std::size_t i) {  // index in factor order
    return perm_.empty() ? i : inv_perm_[i];
  };
  // Mark the union of the paths; each walk stops at the first node an
  // earlier walk already marked, since the rest of its path is marked too.
  std::vector<std::size_t>& path = scratch.path;
  for (const std::size_t i : s) {
    for (std::size_t j = position(i);
         j != kNone && scratch.on_path[j] == 0; j = parent_[j]) {
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
    std::size_t lo = n_;
    for (const std::size_t i : s) lo = std::min(lo, position(i));
    path.clear();
    for (std::size_t j = lo; j < n_; ++j) {
      if (scratch.on_path[j] != 0) path.push_back(j);
    }
  }
  Vector& x = scratch.x;
  for (std::size_t t = 0; t < s.size(); ++t) {
    x[position(s[t])] = values[t];
  }
  for (const std::size_t j : path) {
    const double xj = x[j];
    for (std::size_t q = col_offsets_[j]; q < col_offsets_[j + 1]; ++q) {
      x[row_indices_[q]] -= values_[q] * xj;
    }
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const std::size_t j = *it;
    double sum = x[j] / diag_[j];  // D, then Lᵗ: ancestors are final
    for (std::size_t q = col_offsets_[j]; q < col_offsets_[j + 1]; ++q) {
      sum -= values_[q] * x[row_indices_[q]];
    }
    x[j] = sum;
  }
  for (std::size_t t = 0; t < s.size(); ++t) {
    values[t] = x[position(s[t])];
  }
  for (const std::size_t j : path) {
    x[j] = 0.0;
    scratch.on_path[j] = 0;
  }
  path.clear();
}

Vector ReferenceCholeskyFactor::inverse_diagonal() const {
  // Z = A⁻¹ on L's pattern, in factor order: z[q] is Z at L's entry q
  // (row row_indices_[q] of column j), z_diag the diagonal. Column j of
  // the upper triangle only reads Z on struct(L_j) × struct(L_j), which
  // later columns already filled: for i < k in struct(L_j), k is in
  // struct(L_i), so Z_ki sits at an entry of column i.
  std::vector<double> z(values_.size(), 0.0);
  Vector z_diag(n_, 0.0);
  Vector l(n_, 0.0);    // column j of L, scattered
  Vector acc(n_, 0.0);  // Σ_k L_kj Z_ki over struct(L_j), per i
  std::vector<std::size_t> mark(n_, kNone);
  for (std::size_t j = n_; j-- > 0;) {
    const std::size_t begin = col_offsets_[j];
    const std::size_t end = col_offsets_[j + 1];
    for (std::size_t q = begin; q < end; ++q) {
      const std::size_t i = row_indices_[q];
      l[i] = values_[q];
      acc[i] = 0.0;
      mark[i] = j;
    }
    for (std::size_t q = begin; q < end; ++q) {
      const std::size_t i = row_indices_[q];
      const double lij = values_[q];
      acc[i] += lij * z_diag[i];
      for (std::size_t p = col_offsets_[i]; p < col_offsets_[i + 1]; ++p) {
        const std::size_t k = row_indices_[p];
        if (mark[k] != j) continue;
        acc[i] += l[k] * z[p];  // L_kj Z_ki
        acc[k] += lij * z[p];   // L_ij Z_ik, by symmetry
      }
    }
    double zjj = 1.0 / diag_[j];
    for (std::size_t q = begin; q < end; ++q) {
      z[q] = -acc[row_indices_[q]];
      zjj -= values_[q] * z[q];
    }
    z_diag[j] = zjj;
  }
  if (perm_.empty()) return z_diag;
  Vector out(n_);
  for (std::size_t k = 0; k < n_; ++k) out[perm_[k]] = z_diag[k];
  return out;
}

void ReferenceCholeskyFactor::substitute(Vector& x) const {
  // L z = b (unit diagonal implicit).
  for (std::size_t j = 0; j < n_; ++j) {
    const double xj = x[j];
    for (std::size_t q = col_offsets_[j]; q < col_offsets_[j + 1]; ++q) {
      x[row_indices_[q]] -= values_[q] * xj;
    }
  }
  // D w = z.
  for (std::size_t j = 0; j < n_; ++j) x[j] /= diag_[j];
  // Lᵗ x = w.
  for (std::size_t j = n_; j-- > 0;) {
    double sum = x[j];
    for (std::size_t q = col_offsets_[j]; q < col_offsets_[j + 1]; ++q) {
      sum -= values_[q] * x[row_indices_[q]];
    }
    x[j] = sum;
  }
}

ReferenceImplicitStepper::ReferenceImplicitStepper(
    const SparseMatrix& g, const Vector& capacitance, double dt,
    std::vector<std::size_t> permutation)
    : c_over_dt_(divided(capacitance, dt)),
      dt_(dt),
      factor_([&] {
        THERMO_REQUIRE(g.rows() == g.cols(), "stepper: G must be square");
        THERMO_REQUIRE(capacitance.size() == g.rows(),
                       "stepper: capacitance size mismatch");
        THERMO_REQUIRE(dt > 0.0, "stepper: dt must be positive");
        // (C/dt + G) stays sparse: copy G's triplets and stamp C/dt on
        // the diagonal (the builder sums duplicates).
        SparseMatrix::Builder builder(g.rows(), g.cols());
        const std::vector<std::size_t>& offsets = g.row_offsets();
        const std::vector<std::size_t>& cols = g.col_indices();
        const std::vector<double>& values = g.values();
        for (std::size_t r = 0; r < g.rows(); ++r) {
          for (std::size_t q = offsets[r]; q < offsets[r + 1]; ++q) {
            builder.add(r, cols[q], values[q]);
          }
        }
        for (std::size_t i = 0; i < capacitance.size(); ++i) {
          THERMO_REQUIRE(capacitance[i] > 0.0,
                         "stepper: capacitances must be positive");
          builder.add(i, i, c_over_dt_[i]);
        }
        return ReferenceCholeskyFactor(builder.build(), std::move(permutation));
      }()) {}

Vector ReferenceImplicitStepper::step(const Vector& y, const Vector& b) const {
  Vector next = y;
  Vector work;
  step_in_place(next, b, work);
  return next;
}

void ReferenceImplicitStepper::step_in_place(Vector& y, const Vector& b,
                                          Vector& work) const {
  THERMO_REQUIRE(y.size() == size(), "stepper: state size mismatch");
  THERMO_REQUIRE(b.size() == size(), "stepper: rhs size mismatch");
  // (C/dt + G) y_next = C/dt y + b, the right-hand side built over y.
  for (std::size_t i = 0; i < size(); ++i) {
    y[i] = c_over_dt_[i] * y[i] + b[i];
  }
  factor_.solve_in_place(y, work);
}

namespace {

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

std::string first_difference(const SparseCholeskyFactor& factor,
                             const ReferenceCholeskyFactor& reference,
                             const Vector& b) {
  if (factor.factor_nonzeros() != reference.factor_nonzeros()) return "fill";
  if (factor.symbolic().permutation() != reference.permutation()) {
    return "permutation";
  }
  if (!same_bits(factor.solve(b), reference.solve(b))) return "solve";
  const std::size_t n = factor.size();
  PathScratch scratch(n);
  PathScratch reference_scratch(n);
  std::vector<std::size_t> s;
  for (std::size_t i = 0; i < n; i += 7) s.push_back(n - 1 - i);
  for (const std::size_t i : s) {
    Vector x(1, b[i]);
    Vector y(1, b[i]);
    factor.solve_subset({&i, 1}, x, scratch);
    reference.solve_subset({&i, 1}, y, reference_scratch);
    if (!same_bits(x, y)) return "solve_subset at node " + std::to_string(i);
  }
  Vector x(s.size());
  for (std::size_t t = 0; t < s.size(); ++t) x[t] = b[s[t]];
  Vector y = x;
  factor.solve_subset(s, x, scratch);
  reference.solve_subset(s, y, reference_scratch);
  if (!same_bits(x, y)) return "solve_subset on a set";
  if (!same_bits(factor.inverse_diagonal(), reference.inverse_diagonal())) {
    return "inverse_diagonal";
  }
  return "";
}

std::string first_difference(const SparseImplicitStepper& stepper,
                             const ReferenceImplicitStepper& reference,
                             const Vector& y, const Vector& b, int steps) {
  const std::string factor =
      first_difference(stepper.factor(), reference.factor(), b);
  if (!factor.empty()) return "factor: " + factor;
  Vector x = y;
  Vector z = y;
  for (int k = 0; k < steps; ++k) {
    x = stepper.step(x, b);
    z = reference.step(z, b);
    if (!same_bits(x, z)) return "step " + std::to_string(k);
  }
  return "";
}

}  // namespace thermo::linalg
