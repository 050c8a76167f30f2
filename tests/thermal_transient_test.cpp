#include "thermal/transient.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "oracles/ode.hpp"
#include "oracles/sparse_ops.hpp"
#include "oracles/vector_ops.hpp"
#include "test_helpers.hpp"
#include "thermal/steady_state.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::quad_floorplan;

// Hottest die block over the run (the package nodes are excluded).
double block_peak(const RCModel& model, const TransientResult& result) {
  double peak = 0.0;
  for (std::size_t b = 0; b < model.block_count(); ++b) {
    peak = std::max(peak, result.peak_temperature[b]);
  }
  return peak;
}

class TransientTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = quad_floorplan();
  PackageParams pkg_;
  RCModel model_{fp_, pkg_};
  std::vector<double> power_{8.0, 0.0, 0.0, 2.0};
};

TEST_F(TransientTest, ZeroDurationReturnsInitialState) {
  const auto initial = ambient_state(model_);
  const TransientResult r =
      simulate_transient(model_, power_, 0.0, initial);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.final_temperature, initial);
  EXPECT_EQ(r.peak_temperature, initial);
}

TEST_F(TransientTest, TemperaturesRiseMonotonicallyFromAmbient) {
  // 50 one-step calls, each starting from the last one's final state,
  // so every step's temperature is checked.
  TransientOptions options;
  options.dt = 1e-3;
  std::vector<double> state = ambient_state(model_);
  double last = pkg_.ambient;
  for (int step = 0; step < 50; ++step) {
    const TransientResult r =
        simulate_transient(model_, power_, options.dt, state, options);
    ASSERT_EQ(r.steps, 1u);
    EXPECT_GE(r.final_temperature[0] + 1e-9, last);
    last = r.final_temperature[0];
    state = r.final_temperature;
  }
  EXPECT_GT(last, pkg_.ambient);
}

TEST_F(TransientTest, ConvergesToSteadyState) {
  // Long horizon: final transient temps must match the steady solve.
  TransientOptions options;
  options.dt = 0.05;
  const TransientResult tr =
      simulate_transient(model_, power_, 400.0, ambient_state(model_), options);
  const SteadyStateResult ss = solve_steady_state(model_, power_);
  for (std::size_t n = 0; n < model_.node_count(); ++n) {
    EXPECT_NEAR(tr.final_temperature[n], ss.temperature[n], 0.05)
        << "node " << n;
  }
}

TEST_F(TransientTest, SteadyStateBoundsTransientPeaks) {
  // The paper's modelling assumption (Section 2, modification 1):
  // steady-state temperatures are upper bounds for transient profiles.
  const TransientResult tr =
      simulate_transient(model_, power_, 1.0, ambient_state(model_));
  const SteadyStateResult ss = solve_steady_state(model_, power_);
  for (std::size_t n = 0; n < model_.node_count(); ++n) {
    EXPECT_LE(tr.peak_temperature[n], ss.temperature[n] + 1e-6);
  }
}

TEST_F(TransientTest, PeakTracksMaximumNotFinal) {
  // Start *hot*: peak must be the initial state even as the chip cools.
  std::vector<double> hot(model_.node_count(), pkg_.ambient + 50.0);
  const TransientResult r = simulate_transient(
      model_, std::vector<double>(4, 0.0), 0.5, hot);
  for (std::size_t n = 0; n < model_.node_count(); ++n) {
    EXPECT_NEAR(r.peak_temperature[n], pkg_.ambient + 50.0, 1e-9);
    EXPECT_LT(r.final_temperature[n], pkg_.ambient + 50.0);
  }
}

TEST_F(TransientTest, LongerSessionRunsHotter) {
  const auto initial = ambient_state(model_);
  const TransientResult short_run =
      simulate_transient(model_, power_, 0.1, initial);
  const TransientResult long_run =
      simulate_transient(model_, power_, 2.0, initial);
  EXPECT_GT(block_peak(model_, long_run), block_peak(model_, short_run));
}

TEST_F(TransientTest, Rk4AgreesWithBackwardEulerOnShortHorizon) {
  // The linalg RK4 integrator is an independent oracle for the
  // backward-Euler path: integrate C x' = p - G x explicitly.
  TransientOptions be;
  be.dt = 1e-4;
  const auto initial = ambient_state(model_);
  const TransientResult a = simulate_transient(model_, power_, 0.02, initial, be);

  const linalg::SparseMatrix& g = model_.conductance_sparse();
  const std::vector<double>& capacitance = model_.capacitance();
  const std::vector<double> p = model_.expand_power(power_);
  const auto rhs = [&](double, const linalg::Vector& x) {
    linalg::Vector dx = linalg::multiply(g, x);
    for (std::size_t i = 0; i < dx.size(); ++i) {
      dx[i] = (p[i] - dx[i]) / capacitance[i];
    }
    return dx;
  };
  // Explicit needs a small step for the stiff die nodes.
  const linalg::Vector rise = linalg::rk4_integrate(
      rhs, 0.0, 0.02, linalg::Vector(model_.node_count(), 0.0), 1e-5);
  for (std::size_t n = 0; n < model_.block_count(); ++n) {
    // BE is first order: expect sub-kelvin, not bit-exact, agreement.
    EXPECT_NEAR(a.final_temperature[n], pkg_.ambient + rise[n], 0.3);
  }
}

TEST_F(TransientTest, FractionalFinalStepLandsOnHorizon) {
  TransientOptions options;
  options.dt = 0.3;  // 1.0 s is not a multiple
  const TransientResult r =
      simulate_transient(model_, power_, 1.0, ambient_state(model_), options);
  EXPECT_EQ(r.steps, 4u);  // 0.3 + 0.3 + 0.3 + 0.1
  // Must agree with a run using an exact divisor within BE step error.
  TransientOptions exact;
  exact.dt = 0.25;
  const TransientResult r2 =
      simulate_transient(model_, power_, 1.0, ambient_state(model_), exact);
  EXPECT_NEAR(r.final_temperature[0], r2.final_temperature[0], 0.5);
}

TEST_F(TransientTest, ValidatesArguments) {
  const auto initial = ambient_state(model_);
  EXPECT_THROW(simulate_transient(model_, power_, -1.0, initial),
               InvalidArgument);
  EXPECT_THROW(
      simulate_transient(model_, power_, 1.0, std::vector<double>(2, 45.0)),
      InvalidArgument);
  TransientOptions bad;
  bad.dt = 0.0;
  EXPECT_THROW(simulate_transient(model_, power_, 1.0, initial, bad),
               InvalidArgument);
  EXPECT_THROW(simulate_transient(model_, {1.0}, 1.0, initial),
               InvalidArgument);
}

TEST_F(TransientTest, MaxBlockPeakIgnoresPackageNodes) {
  const TransientResult r =
      simulate_transient(model_, power_, 0.5, ambient_state(model_));
  // Power enters at the die blocks, so no package node runs hotter than
  // the hottest block.
  const double die_peak = block_peak(model_, r);
  for (std::size_t n = model_.block_count(); n < model_.node_count(); ++n) {
    EXPECT_LT(r.peak_temperature[n], die_peak);
  }
}

}  // namespace
}  // namespace thermo::thermal
