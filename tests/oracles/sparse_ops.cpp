#include "oracles/sparse_ops.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "util/error.hpp"

namespace thermo::linalg {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
}  // namespace

SparseMatrix from_dense(const DenseMatrix& dense, double drop_tol) {
  assert(dense.rows() * dense.cols() <= std::size_t{4096} * 4096 &&
         "from_dense on a large matrix: assemble via SparseMatrix::Builder");
  SparseMatrix::Builder builder(dense.rows(), dense.cols());
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      const double v = dense(r, c);
      if (std::fabs(v) > drop_tol) builder.add(r, c, v);
    }
  }
  return builder.build();
}

DenseMatrix to_dense(const SparseMatrix& a) {
  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();
  const std::vector<double>& av = a.values();
  DenseMatrix dense(a.rows(), a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = ap[r]; k < ap[r + 1]; ++k) {
      dense(r, ai[k]) += av[k];
    }
  }
  return dense;
}

Vector multiply(const SparseMatrix& a, const Vector& x) {
  Vector y;
  multiply_into(a, x, y);
  return y;
}

void multiply_into(const SparseMatrix& a, const Vector& x, Vector& y) {
  THERMO_REQUIRE(x.size() == a.cols(), "sparse multiply: dimension mismatch");
  THERMO_REQUIRE(&x != &y, "sparse multiply: x and y must not alias");
  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();
  const std::vector<double>& av = a.values();
  y.resize(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t k = ap[r]; k < ap[r + 1]; ++k) {
      sum += av[k] * x[ai[k]];
    }
    y[r] = sum;
  }
}

Vector diagonal(const SparseMatrix& a) {
  THERMO_REQUIRE(a.rows() == a.cols(), "diagonal: matrix must be square");
  Vector d(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) d[r] = a.at(r, r);
  return d;
}

std::size_t symbolic_factor_nonzeros(const SparseMatrix& a,
                                     const std::vector<std::size_t>& perm) {
  THERMO_REQUIRE(a.rows() == a.cols(),
                 "symbolic factor: matrix must be square");
  const std::size_t n = a.rows();
  if (n == 0) return 0;
  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();

  std::vector<std::size_t> inv;
  if (!perm.empty()) {
    THERMO_REQUIRE(perm.size() == n,
                   "symbolic factor: permutation size mismatch");
    inv.assign(n, kNone);
    for (std::size_t k = 0; k < n; ++k) {
      THERMO_REQUIRE(perm[k] < n && inv[perm[k]] == kNone,
                     "symbolic factor: not a permutation");
      inv[perm[k]] = k;
    }
  }

  // Elimination-tree column counts — the same walk as the symbolic
  // pass in SparseCholeskyFactor, summed instead of stored. Reading
  // the whole row of A and keeping entries that land strictly below
  // the diagonal AFTER permutation needs pattern symmetry, which
  // stamped conductance matrices provide by construction.
  std::vector<std::size_t> parent(n, kNone);
  std::vector<std::size_t> flag(n, kNone);
  std::size_t nnz = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t row = perm.empty() ? k : perm[k];
    flag[k] = k;
    for (std::size_t q = ap[row]; q < ap[row + 1]; ++q) {
      std::size_t i = perm.empty() ? ai[q] : inv[ai[q]];
      if (i >= k) continue;
      for (; flag[i] != k; i = parent[i]) {
        if (parent[i] == kNone) parent[i] = k;
        ++nnz;
        flag[i] = k;
      }
    }
  }
  return nnz;
}

SparseCholeskyFactor factor_in_order(const SparseMatrix& a,
                                     std::vector<std::size_t> perm) {
  return SparseCholeskyFactor(
      std::make_shared<const SymbolicCholesky>(a, std::move(perm)), a);
}

}  // namespace thermo::linalg
