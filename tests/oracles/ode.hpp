// ODE integrators.
//
// Two families, both test oracles for the thermal layer's sparse
// backward-Euler stepper (sparse_cholesky.hpp; docs/SOLVERS.md):
//  * a generic explicit integrator (RK4) over an arbitrary
//    right-hand side f(t, y);
//  * a dense implicit (backward Euler) stepper for the *linear* system
//    C dT/dt = p - G (T - T_amb), which is stiff: die nodes have
//    millisecond time constants while the heat sink has second-scale
//    ones. The BE system matrix (C/dt + G) is LU-factored once per step
//    size and reused; step() is const and thread-safe.
#pragma once

#include <functional>

#include "oracles/dense_matrix.hpp"
#include "oracles/lu.hpp"
#include "oracles/vector_ops.hpp"

namespace thermo::linalg {

using OdeRhs = std::function<Vector(double t, const Vector& y)>;

/// Classic fixed-step 4th-order Runge-Kutta step.
Vector rk4_step(const OdeRhs& f, double t, const Vector& y, double dt);

/// Integrates from t0 to t1 with fixed steps (the last step is shortened
/// to land exactly on t1). `observer`, when given, is called after every
/// step with (t, y).
Vector rk4_integrate(const OdeRhs& f, double t0, double t1, Vector y0,
                     double dt,
                     const std::function<void(double, const Vector&)>& observer = {});

/// Backward-Euler stepper for the linear constant-coefficient system
///     C dy/dt = b - G y
/// with diagonal capacitance C (as a vector) and dense G.
class LinearImplicitStepper {
 public:
  /// Factors (C/dt + G); dt must be > 0, capacitance entries > 0.
  LinearImplicitStepper(const DenseMatrix& g, const Vector& capacitance,
                        double dt);

  double dt() const { return dt_; }
  std::size_t size() const { return capacitance_.size(); }

  /// Advances one step: returns y(t + dt) given y(t) and constant rhs b.
  Vector step(const Vector& y, const Vector& b) const;

 private:
  Vector capacitance_;
  double dt_;
  LuDecomposition factor_;
};

}  // namespace thermo::linalg
