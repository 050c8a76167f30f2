#include "oracles/ode.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace thermo::linalg {
namespace {

// dy/dt = -y, y(0) = 1  ->  y(t) = exp(-t)
const OdeRhs kDecay = [](double, const Vector& y) {
  return Vector{-y[0]};
};

TEST(Rk4, MatchesExponentialDecay) {
  const Vector y = rk4_integrate(kDecay, 0.0, 1.0, {1.0}, 1e-3);
  EXPECT_NEAR(y[0], std::exp(-1.0), 1e-9);
}

TEST(Rk4, FourthOrderConvergence) {
  // Halving dt should shrink the error by ~16x.
  auto error_at = [](double dt) {
    const Vector y = rk4_integrate(kDecay, 0.0, 1.0, {1.0}, dt);
    return std::fabs(y[0] - std::exp(-1.0));
  };
  const double e1 = error_at(0.1);
  const double e2 = error_at(0.05);
  EXPECT_GT(e1 / e2, 12.0);
  EXPECT_LT(e1 / e2, 20.0);
}

TEST(Rk4, LandsExactlyOnHorizon) {
  // 0.3 is not a multiple of dt=0.07; the last step must be shortened.
  const Vector y = rk4_integrate(kDecay, 0.0, 0.3, {1.0}, 0.07);
  EXPECT_NEAR(y[0], std::exp(-0.3), 1e-6);
}

TEST(Rk4, ObserverSeesMonotoneTime) {
  double last_t = -1.0;
  std::size_t calls = 0;
  rk4_integrate(kDecay, 0.0, 0.5, {1.0}, 0.1,
                [&](double t, const Vector&) {
                  EXPECT_GT(t, last_t);
                  last_t = t;
                  ++calls;
                });
  EXPECT_EQ(calls, 5u);
  EXPECT_NEAR(last_t, 0.5, 1e-12);
}

TEST(Rk4, RejectsNonPositiveDt) {
  EXPECT_THROW(rk4_integrate(kDecay, 0.0, 1.0, {1.0}, 0.0), InvalidArgument);
}

TEST(Rk4, RejectsBackwardHorizon) {
  EXPECT_THROW(rk4_integrate(kDecay, 1.0, 0.0, {1.0}, 0.1), InvalidArgument);
}

TEST(ImplicitStepper, ConvergesToSteadyState) {
  // C y' = b - G y with C=1, G=2, b=4: steady state y = 2.
  const auto g = DenseMatrix::from_rows({{2.0}});
  const LinearImplicitStepper stepper(g, {1.0}, 0.1);
  Vector y{0.0};
  for (int i = 0; i < 400; ++i) y = stepper.step(y, {4.0});
  EXPECT_NEAR(y[0], 2.0, 1e-8);
}

TEST(ImplicitStepper, MatchesAnalyticDecayWithinStepError) {
  // C y' = -G y: y(t) = exp(-t) with C=G=1. BE is first order.
  const auto g = DenseMatrix::from_rows({{1.0}});
  const double dt = 1e-3;
  const LinearImplicitStepper stepper(g, {1.0}, dt);
  Vector y{1.0};
  for (int i = 0; i < 1000; ++i) y = stepper.step(y, {0.0});
  EXPECT_NEAR(y[0], std::exp(-1.0), 1e-3);
}

TEST(ImplicitStepper, StableOnStiffSystemWithLargeStep) {
  // Fast mode (tau = 1e-4) plus slow mode (tau = 1): explicit RK4 at
  // dt = 0.05 would explode; backward Euler must stay bounded and hit
  // the right steady state.
  const auto g = DenseMatrix::from_rows({{1e4, 0.0}, {0.0, 1.0}});
  const LinearImplicitStepper stepper(g, {1.0, 1.0}, 0.05);
  Vector y{0.0, 0.0};
  const Vector b{1e4, 1.0};  // steady state {1, 1}
  for (int i = 0; i < 200; ++i) {
    y = stepper.step(y, b);
    EXPECT_LT(std::fabs(y[0]), 10.0);
  }
  EXPECT_NEAR(y[0], 1.0, 1e-6);
  EXPECT_NEAR(y[1], 1.0, 1e-3);
}

TEST(ImplicitStepper, ValidatesInputs) {
  const auto g = DenseMatrix::from_rows({{1.0}});
  EXPECT_THROW(LinearImplicitStepper(g, {1.0}, 0.0), InvalidArgument);
  EXPECT_THROW(LinearImplicitStepper(g, {0.0}, 0.1), InvalidArgument);
  EXPECT_THROW(LinearImplicitStepper(g, {1.0, 2.0}, 0.1), InvalidArgument);
  const LinearImplicitStepper stepper(g, {1.0}, 0.1);
  EXPECT_THROW(stepper.step({1.0, 2.0}, {0.0}), InvalidArgument);
}

}  // namespace
}  // namespace thermo::linalg
