#include "thermal/steady_state.hpp"

#include <gtest/gtest.h>

#include "oracles/iterative.hpp"
#include "oracles/lu.hpp"
#include "oracles/sparse_ops.hpp"
#include "oracles/vector_ops.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

/// Temperature rise over ambient per node [K].
std::vector<double> rise(const RCModel& model, const SteadyStateResult& r) {
  std::vector<double> out(r.temperature.size());
  for (std::size_t n = 0; n < out.size(); ++n) {
    out[n] = r.temperature[n] - model.package().ambient;
  }
  return out;
}

class SteadyStateTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = nine_floorplan();
  PackageParams pkg_;
  RCModel model_{fp_, pkg_};
};

TEST_F(SteadyStateTest, ZeroPowerGivesAmbientEverywhere) {
  const SteadyStateResult r =
      solve_steady_state(model_, std::vector<double>(9, 0.0));
  for (double t : r.temperature) EXPECT_NEAR(t, pkg_.ambient, 1e-9);
  for (double dt : rise(model_, r)) EXPECT_NEAR(dt, 0.0, 1e-9);
}

TEST_F(SteadyStateTest, PositivePowerHeatsEveryNode) {
  std::vector<double> power(9, 0.0);
  power[4] = 10.0;  // centre block
  const SteadyStateResult r = solve_steady_state(model_, power);
  for (double dt : rise(model_, r)) EXPECT_GT(dt, 0.0);
}

TEST_F(SteadyStateTest, HeatedBlockIsHottest) {
  std::vector<double> power(9, 0.0);
  power[4] = 10.0;
  const SteadyStateResult r = solve_steady_state(model_, power);
  const double max_block = max_block_temperature(model_, r);
  EXPECT_DOUBLE_EQ(max_block, r.temperature[4]);
}

TEST_F(SteadyStateTest, LinearityInPower) {
  std::vector<double> power(9, 0.0);
  power[2] = 5.0;
  const auto once = rise(model_, solve_steady_state(model_, power));
  power[2] = 10.0;
  const auto twice = rise(model_, solve_steady_state(model_, power));
  for (std::size_t n = 0; n < once.size(); ++n) {
    EXPECT_NEAR(twice[n], 2.0 * once[n], 1e-8);
  }
}

TEST_F(SteadyStateTest, SuperpositionOfSources) {
  std::vector<double> pa(9, 0.0), pb(9, 0.0), pab(9, 0.0);
  pa[0] = 7.0;
  pb[8] = 3.0;
  pab[0] = 7.0;
  pab[8] = 3.0;
  const auto ra = rise(model_, solve_steady_state(model_, pa));
  const auto rb = rise(model_, solve_steady_state(model_, pb));
  const auto rab = rise(model_, solve_steady_state(model_, pab));
  for (std::size_t n = 0; n < rab.size(); ++n) {
    EXPECT_NEAR(rab[n], ra[n] + rb[n], 1e-8);
  }
}

TEST_F(SteadyStateTest, Reciprocity) {
  // For a symmetric conductance network, the rise at j from power at i
  // equals the rise at i from the same power at j.
  std::vector<double> pa(9, 0.0), pb(9, 0.0);
  pa[0] = 10.0;
  pb[7] = 10.0;
  const auto ra = rise(model_, solve_steady_state(model_, pa));
  const auto rb = rise(model_, solve_steady_state(model_, pb));
  EXPECT_NEAR(ra[7], rb[0], 1e-8);
}

TEST_F(SteadyStateTest, MonotoneInPower) {
  std::vector<double> low(9, 1.0), high(9, 1.0);
  high[4] = 2.0;
  const auto rl = rise(model_, solve_steady_state(model_, low));
  const auto rh = rise(model_, solve_steady_state(model_, high));
  for (std::size_t n = 0; n < rl.size(); ++n) {
    EXPECT_GE(rh[n], rl[n] - 1e-12);
  }
}

TEST_F(SteadyStateTest, SmallerBlockRunsHotterAtSamePower) {
  const floorplan::Floorplan fp("two", {{"small", 1e-3, 1e-3, 0.0, 0.0},
                                        {"pad", 3e-3, 1e-3, 1e-3, 0.0},
                                        {"large", 4e-3, 3e-3, 0.0, 1e-3}});
  const RCModel model(fp, pkg_);
  const auto r_small = solve_steady_state(model, {10.0, 0.0, 0.0});
  const auto r_large = solve_steady_state(model, {0.0, 0.0, 10.0});
  EXPECT_GT(r_small.temperature[0], r_large.temperature[2]);
}

TEST_F(SteadyStateTest, AllSolversAgree) {
  // The cached sparse factor against the linalg reference solvers on the
  // same G: dense LU and Jacobi-preconditioned CG.
  std::vector<double> power(9, 0.0);
  power[1] = 4.0;
  power[6] = 8.0;
  const auto sparse = rise(model_, solve_steady_state(model_, power));
  const auto full_power = model_.expand_power(power);
  const auto lu = linalg::LuFactor(linalg::to_dense(model_.conductance_sparse()))
                      .solve(full_power);
  linalg::IterativeOptions options;
  options.tolerance = 1e-12;
  const auto cg = linalg::conjugate_gradient(model_.conductance_sparse(),
                                             full_power, options);
  ASSERT_TRUE(cg.converged);
  EXPECT_LT(linalg::norm_inf(linalg::subtract(sparse, lu)), 1e-8);
  EXPECT_LT(linalg::norm_inf(linalg::subtract(sparse, cg.solution)), 1e-6);
}

TEST_F(SteadyStateTest, ResidualIsSmall) {
  std::vector<double> power(9, 2.0);
  const auto r = rise(model_, solve_steady_state(model_, power));
  const auto full_power = model_.expand_power(power);
  const auto residual = linalg::subtract(
      full_power, linalg::multiply(model_.conductance_sparse(), r));
  EXPECT_LT(linalg::norm_inf(residual), 1e-8);
}

TEST_F(SteadyStateTest, DissipatedHeatMatchesInjectedPower) {
  // In steady state, all injected watts leave through the sink nodes.
  std::vector<double> power(9, 0.0);
  power[3] = 12.0;
  const auto r = rise(model_, solve_steady_state(model_, power));
  // A node's conductance to ambient is its row sum of G (Kirchhoff).
  const std::vector<double> to_ambient = linalg::multiply(
      model_.conductance_sparse(), std::vector<double>(model_.node_count(), 1.0));
  double outflow = 0.0;
  for (std::size_t n = 0; n < model_.node_count(); ++n) {
    outflow += to_ambient[n] * r[n];
  }
  EXPECT_NEAR(outflow, 12.0, 1e-8);
}

TEST_F(SteadyStateTest, MaxBlockTemperatureValidatesResult) {
  SteadyStateResult bogus;
  bogus.temperature = {1.0};
  EXPECT_THROW(max_block_temperature(model_, bogus), InvalidArgument);
}

}  // namespace
}  // namespace thermo::thermal
