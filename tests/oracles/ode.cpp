#include "oracles/ode.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace thermo::linalg {

Vector rk4_step(const OdeRhs& f, double t, const Vector& y, double dt) {
  const Vector k1 = f(t, y);
  Vector tmp = y;
  axpy(0.5 * dt, k1, tmp);
  const Vector k2 = f(t + 0.5 * dt, tmp);
  tmp = y;
  axpy(0.5 * dt, k2, tmp);
  const Vector k3 = f(t + 0.5 * dt, tmp);
  tmp = y;
  axpy(dt, k3, tmp);
  const Vector k4 = f(t + dt, tmp);

  Vector out = y;
  const double w = dt / 6.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    out[i] += w * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
  return out;
}

Vector rk4_integrate(const OdeRhs& f, double t0, double t1, Vector y0, double dt,
                     const std::function<void(double, const Vector&)>& observer) {
  THERMO_REQUIRE(dt > 0.0, "rk4_integrate: dt must be positive");
  THERMO_REQUIRE(t1 >= t0, "rk4_integrate: t1 must be >= t0");
  double t = t0;
  while (t < t1) {
    const double step = std::min(dt, t1 - t);
    y0 = rk4_step(f, t, y0, step);
    t += step;
    if (observer) observer(t, y0);
  }
  return y0;
}

LinearImplicitStepper::LinearImplicitStepper(const DenseMatrix& g,
                                             const Vector& capacitance,
                                             double dt)
    : capacitance_(capacitance),
      dt_(dt),
      factor_([&] {
        THERMO_REQUIRE(g.rows() == g.cols(), "stepper: G must be square");
        THERMO_REQUIRE(capacitance.size() == g.rows(),
                       "stepper: capacitance size mismatch");
        THERMO_REQUIRE(dt > 0.0, "stepper: dt must be positive");
        DenseMatrix system = g;
        for (std::size_t i = 0; i < capacitance.size(); ++i) {
          THERMO_REQUIRE(capacitance[i] > 0.0,
                         "stepper: capacitances must be positive");
          system(i, i) += capacitance[i] / dt;
        }
        return LuDecomposition(system);
      }()) {}

Vector LinearImplicitStepper::step(const Vector& y, const Vector& b) const {
  THERMO_REQUIRE(y.size() == size(), "stepper: state size mismatch");
  THERMO_REQUIRE(b.size() == size(), "stepper: rhs size mismatch");
  // (C/dt + G) y_next = C/dt y + b
  Vector rhs(size());
  for (std::size_t i = 0; i < size(); ++i) {
    rhs[i] = capacitance_[i] / dt_ * y[i] + b[i];
  }
  return factor_.solve(rhs);
}

}  // namespace thermo::linalg
