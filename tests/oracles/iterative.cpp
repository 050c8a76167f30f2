#include "oracles/iterative.hpp"

#include "oracles/sparse_ops.hpp"
#include "util/error.hpp"

namespace thermo::linalg {

namespace {
void check_system(const SparseMatrix& a, const Vector& b) {
  THERMO_REQUIRE(a.rows() == a.cols(), "iterative solver: matrix must be square");
  THERMO_REQUIRE(b.size() == a.rows(), "iterative solver: rhs size mismatch");
}
}  // namespace

IterativeResult conjugate_gradient(const SparseMatrix& a, const Vector& b,
                                   const IterativeOptions& options) {
  check_system(a, b);
  const std::size_t n = a.rows();
  IterativeResult result;
  result.solution.assign(n, 0.0);

  const double b_norm = norm2(b);
  if (b_norm == 0.0) {
    result.converged = true;
    return result;
  }

  Vector diag = diagonal(a);
  for (double& d : diag) {
    if (d == 0.0) throw NumericalError("CG: zero diagonal entry");
  }

  Vector r = b;  // r = b - A*0
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / diag[i];
  Vector p = z;
  double rz = dot(r, z);

  Vector ap;  // SpMV buffer reused across iterations (multiply_into)
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    multiply_into(a, p, ap);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) {
      throw NumericalError("CG: matrix is not positive definite");
    }
    const double alpha = rz / p_ap;
    axpy(alpha, p, result.solution);
    axpy(-alpha, ap, r);

    result.iterations = iter + 1;
    result.residual = norm2(r) / b_norm;
    if (result.residual <= options.tolerance) {
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / diag[i];
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;  // converged == false
}

}  // namespace thermo::linalg
