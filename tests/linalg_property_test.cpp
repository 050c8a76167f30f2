// Parameterised property sweeps across the linear-algebra substrate:
// the solvers must agree with each other on any well-posed system, at
// any size in the range the thermal models use.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/sparse.hpp"
#include "oracles/cholesky.hpp"
#include "oracles/iterative.hpp"
#include "oracles/lu.hpp"
#include "oracles/ode.hpp"
#include "oracles/sparse_ops.hpp"
#include "oracles/vector_ops.hpp"
#include "util/rng.hpp"

namespace thermo::linalg {
namespace {

/// Random symmetric diagonally-dominant (hence SPD) sparse system that
/// looks like a thermal conductance matrix: a 2-D grid Laplacian with
/// random positive couplings plus random grounding.
SparseMatrix random_conductance(std::size_t side, Rng& rng) {
  const std::size_t n = side * side;
  SparseMatrix::Builder builder(n, n);
  auto at = [side](std::size_t r, std::size_t c) { return r * side + c; };
  std::vector<double> diag(n, 0.0);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        const double g = rng.uniform(0.1, 5.0);
        builder.add(at(r, c), at(r, c + 1), -g);
        builder.add(at(r, c + 1), at(r, c), -g);
        diag[at(r, c)] += g;
        diag[at(r, c + 1)] += g;
      }
      if (r + 1 < side) {
        const double g = rng.uniform(0.1, 5.0);
        builder.add(at(r, c), at(r + 1, c), -g);
        builder.add(at(r + 1, c), at(r, c), -g);
        diag[at(r, c)] += g;
        diag[at(r + 1, c)] += g;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Ground every node a little (convection-like), keeping SPD strict.
    builder.add(i, i, diag[i] + rng.uniform(0.01, 1.0));
  }
  return builder.build();
}

Vector random_rhs(std::size_t n, Rng& rng) {
  Vector b(n);
  for (double& v : b) v = rng.uniform(0.0, 20.0);
  return b;
}

class SolverAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolverAgreement, AllFourSolversProduceTheSameSolution) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 131 + GetParam());
    const SparseMatrix a = random_conductance(GetParam(), rng);
    const Vector b = random_rhs(a.rows(), rng);
    const DenseMatrix dense = to_dense(a);

    const Vector x_lu = lu_solve(dense, b);
    const Vector x_chol = cholesky_solve(dense, b);
    const IterativeResult cg = conjugate_gradient(a, b);

    ASSERT_TRUE(cg.converged);
    const double scale = 1.0 + norm_inf(x_lu);
    EXPECT_LT(norm_inf(subtract(x_lu, x_chol)) / scale, 1e-9);
    EXPECT_LT(norm_inf(subtract(x_lu, cg.solution)) / scale, 1e-6);
  }
}

TEST_P(SolverAgreement, CgConvergesWithinDimensionIterations) {
  // For SPD systems CG converges in at most n steps (exact arithmetic);
  // with the Jacobi preconditioner and fp noise we allow 2n.
  Rng rng(GetParam() + 999);
  const SparseMatrix a = random_conductance(GetParam(), rng);
  const Vector b = random_rhs(a.rows(), rng);
  const IterativeResult cg = conjugate_gradient(a, b);
  EXPECT_TRUE(cg.converged);
  EXPECT_LE(cg.iterations, 2 * a.rows() + 10);
}

TEST_P(SolverAgreement, SolutionIsNonNegativeForNonNegativeRhs) {
  // Physical sanity: conductance systems map non-negative power to
  // non-negative temperature rises (inverse M-matrix positivity).
  Rng rng(GetParam() + 1234);
  const SparseMatrix a = random_conductance(GetParam(), rng);
  const Vector b = random_rhs(a.rows(), rng);
  const Vector x = cholesky_solve(to_dense(a), b);
  for (double v : x) EXPECT_GE(v, -1e-12);
}

INSTANTIATE_TEST_SUITE_P(GridSides, SolverAgreement,
                         ::testing::Values(2, 3, 4, 6, 8));

class OdeAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OdeAgreement, BackwardEulerMatchesRk4OnRandomRcSystems) {
  Rng rng(GetParam() * 7 + 5);
  const SparseMatrix a = random_conductance(GetParam(), rng);
  const DenseMatrix g = to_dense(a);
  const std::size_t n = g.rows();
  Vector capacitance(n);
  for (double& c : capacitance) c = rng.uniform(0.5, 2.0);
  const Vector b = random_rhs(n, rng);

  // Backward Euler with a small step...
  const LinearImplicitStepper stepper(g, capacitance, 1e-3);
  Vector y_be(n, 0.0);
  for (int step = 0; step < 500; ++step) y_be = stepper.step(y_be, b);

  // ...vs RK4 on the same horizon.
  const OdeRhs rhs = [&](double, const Vector& y) {
    Vector dy = g.multiply(y);
    for (std::size_t i = 0; i < n; ++i) dy[i] = (b[i] - dy[i]) / capacitance[i];
    return dy;
  };
  const Vector y_rk4 = rk4_integrate(rhs, 0.0, 0.5, Vector(n, 0.0), 1e-4);

  const double scale = 1.0 + norm_inf(y_rk4);
  EXPECT_LT(norm_inf(subtract(y_be, y_rk4)) / scale, 5e-3);
}

TEST_P(OdeAgreement, SteadyStateOfOdeMatchesLinearSolve) {
  Rng rng(GetParam() * 13 + 17);
  const SparseMatrix a = random_conductance(GetParam(), rng);
  const DenseMatrix g = to_dense(a);
  const std::size_t n = g.rows();
  const Vector capacitance(n, 1.0);
  const Vector b = random_rhs(n, rng);

  const LinearImplicitStepper stepper(g, capacitance, 0.5);
  Vector y(n, 0.0);
  for (int step = 0; step < 2000; ++step) y = stepper.step(y, b);

  const Vector x = cholesky_solve(g, b);
  EXPECT_LT(norm_inf(subtract(y, x)) / (1.0 + norm_inf(x)), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(GridSides, OdeAgreement, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace thermo::linalg
