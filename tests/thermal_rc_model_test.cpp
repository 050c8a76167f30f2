#include "thermal/rc_model.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "oracles/sparse_ops.hpp"
#include "test_helpers.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/grid_model.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::factorizations;
using thermo::testing::idx;
using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

TEST(Package, DefaultParamsValidate) {
  EXPECT_NO_THROW(PackageParams{}.validate());
}

TEST(Package, RejectsNonPhysicalValues) {
  PackageParams p;
  p.t_die = 0.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = PackageParams{};
  p.k_die = -1.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = PackageParams{};
  p.r_convec = 0.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = PackageParams{};
  p.sink_side = p.spreader_side / 2.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(RcModel, NodeCountIsBlocksPlusPackage) {
  const RCModel model(quad_floorplan(), PackageParams{});
  EXPECT_EQ(model.block_count(), 4u);
  EXPECT_EQ(model.node_count(), 4u + kPackageNodes);
}

TEST(RcModel, ConductanceMatrixIsSymmetric) {
  const RCModel model(nine_floorplan(), PackageParams{});
  EXPECT_TRUE(model.conductance_sparse().is_symmetric(1e-12));
  EXPECT_TRUE(linalg::to_dense(model.conductance_sparse()).is_symmetric(1e-12));
}

/// Row sums of G: by Kirchhoff, each node's conductance to ambient (all
/// internal couplings cancel).
std::vector<double> row_sums(const RCModel& model) {
  return linalg::multiply(model.conductance_sparse(),
                          std::vector<double>(model.node_count(), 1.0));
}

TEST(RcModel, RowSumsEqualAmbientConductance) {
  // Only the sink nodes convect to ambient: the centre over the spreader
  // footprint, each periphery node over a quarter of the rest, so the
  // five recombine to exactly 1 / r_convec.
  const PackageParams package;
  const RCModel model(nine_floorplan(), package);
  const std::vector<double> sums = row_sums(model);
  const double a_sink = package.sink_side * package.sink_side;
  const double a_spr = package.spreader_side * package.spreader_side;
  const std::size_t sink = model.sink_center_index();
  EXPECT_NEAR(sums[sink], a_spr / (package.r_convec * a_sink), 1e-9);
  double total = sums[sink];
  for (std::size_t n = sink + 1; n < sink + 5; ++n) {
    EXPECT_NEAR(sums[n], (a_sink - a_spr) / 4.0 / (package.r_convec * a_sink),
                1e-9)
        << "node " << n;
    total += sums[n];
  }
  EXPECT_NEAR(total, 1.0 / package.r_convec, 1e-9);
  for (std::size_t n = 0; n < sink; ++n) {
    EXPECT_NEAR(sums[n], 0.0, 1e-9) << "node " << n;
  }
}

TEST(RcModel, OnlySinkNodesTouchAmbient) {
  const RCModel model(quad_floorplan(), PackageParams{});
  const std::vector<double> sums = row_sums(model);
  for (std::size_t n = 0; n < model.node_count(); ++n) {
    const bool is_sink = n >= model.sink_center_index();
    if (is_sink) {
      EXPECT_GT(sums[n], 1e-6) << "node " << n;
    } else {
      // Cancellation leaves rounding only, far below any coupling.
      EXPECT_LT(std::fabs(sums[n]), 1e-12 * model.conductance_sparse().at(n, n))
          << "node " << n;
    }
  }
}

TEST(RcModel, AdjacentBlocksAreCoupled) {
  const floorplan::Floorplan fp = quad_floorplan();
  const RCModel model(fp, PackageParams{});
  EXPECT_GT(model.conductance_between(idx(fp, "a"), idx(fp, "b")), 0.0);
  EXPECT_DOUBLE_EQ(model.conductance_between(idx(fp, "a"), idx(fp, "d")), 0.0);
}

TEST(RcModel, EveryBlockHasVerticalPath) {
  const RCModel model(nine_floorplan(), PackageParams{});
  for (std::size_t b = 0; b < model.block_count(); ++b) {
    EXPECT_GT(model.conductance_between(b, model.spreader_center_index()), 0.0);
  }
}

TEST(RcModel, LargerBlockHasLargerVerticalConductance) {
  const floorplan::Floorplan fp("two", {{"small", 1e-3, 1e-3, 0.0, 0.0},
                                        {"large", 4e-3, 1e-3, 1e-3, 0.0}});
  const RCModel model(fp, PackageParams{});
  EXPECT_GT(model.conductance_between(1, model.spreader_center_index()),
            model.conductance_between(0, model.spreader_center_index()));
}

TEST(RcModel, CapacitancesArePositiveAndScaleWithArea) {
  const floorplan::Floorplan fp("two", {{"small", 1e-3, 1e-3, 0.0, 0.0},
                                        {"large", 4e-3, 1e-3, 1e-3, 0.0}});
  const RCModel model(fp, PackageParams{});
  const auto& c = model.capacitance();
  for (double v : c) EXPECT_GT(v, 0.0);
  EXPECT_NEAR(c[1] / c[0], 4.0, 1e-9);
}

TEST(RcModel, ExpandPowerPlacesBlockPowerOnly) {
  const RCModel model(quad_floorplan(), PackageParams{});
  const auto power = model.expand_power({1.0, 2.0, 3.0, 4.0});
  ASSERT_EQ(power.size(), model.node_count());
  EXPECT_DOUBLE_EQ(power[2], 3.0);
  for (std::size_t n = model.block_count(); n < model.node_count(); ++n) {
    EXPECT_DOUBLE_EQ(power[n], 0.0);
  }
}

TEST(RcModel, ExpandPowerValidatesInput) {
  const RCModel model(quad_floorplan(), PackageParams{});
  EXPECT_THROW(model.expand_power({1.0}), InvalidArgument);
  EXPECT_THROW(model.expand_power({1.0, -2.0, 3.0, 4.0}), InvalidArgument);
  EXPECT_THROW(model.expand_power({1.0, std::nan(""), 3.0, 4.0}),
               InvalidArgument);
}

TEST(RcModel, RejectsInvalidFloorplan) {
  // The overlap fails the floorplan's constructor, so no model is built.
  EXPECT_THROW(RCModel(floorplan::Floorplan(
                           "bad", {{"a", 2e-3, 2e-3, 0.0, 0.0},
                                   {"b", 2e-3, 2e-3, 1e-3, 1e-3}}),
                       PackageParams{}),
               InvalidArgument);
}

TEST(RcModel, RejectsEmptyFloorplan) {
  // A model of the package alone would schedule no cores; the empty
  // floorplan is a caller's mistake, not a chip.
  EXPECT_THROW(RCModel(floorplan::Floorplan(), PackageParams{}),
               InvalidArgument);
}

TEST(RcModel, RejectsInvalidPackage) {
  PackageParams bad;
  bad.k_tim = 0.0;
  EXPECT_THROW(RCModel(quad_floorplan(), bad), InvalidArgument);
}

// --- the model's own factor of G ---------------------------------------

TEST(RcModelSteadyFactor, ConcurrentFirstCallsFactorOnce) {
  const auto model =
      std::make_shared<const RCModel>(nine_floorplan(), PackageParams{});
  const std::uint64_t before = factorizations();
  constexpr std::size_t kThreads = 8;
  std::vector<const linalg::SparseCholeskyFactor*> seen(kThreads, nullptr);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      seen[t] = &model->steady_factor();
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  for (const linalg::SparseCholeskyFactor* factor : seen) {
    EXPECT_EQ(factor, seen.front());
  }
  EXPECT_EQ(factorizations() - before, 1u);
  EXPECT_EQ(seen.front()->size(), model->node_count());
}

// A model owns what it derives, so it is built in place and shared
// through a shared_ptr, never copied.
static_assert(!std::is_copy_constructible_v<RCModel>);
static_assert(!std::is_copy_constructible_v<GridThermalModel>);

TEST(RcModelSteadyFactor, AnalyzersSharingAModelShareItsFactorRebuildsDoNot) {
  const auto model =
      std::make_shared<const RCModel>(nine_floorplan(), PackageParams{});
  ThermalAnalyzer::Options steady;
  steady.transient = false;
  ThermalAnalyzer first(model, steady);
  ThermalAnalyzer second(model, steady);
  ThermalAnalyzer rebuilt(
      std::make_shared<const RCModel>(nine_floorplan(), PackageParams{}),
      steady);
  const std::vector<std::size_t> cores = {0, 4};
  const std::vector<double> power = {2.0, 3.0};
  const std::uint64_t before = factorizations();
  const SessionPeaks a = first.session_peaks(cores, power, 1.0);
  EXPECT_EQ(factorizations() - before, 1u);
  EXPECT_EQ(second.session_peaks(cores, power, 1.0).core_peak, a.core_peak);
  EXPECT_EQ(&second.model().steady_factor(), &first.model().steady_factor());
  EXPECT_EQ(factorizations() - before, 1u);
  EXPECT_EQ(rebuilt.session_peaks(cores, power, 1.0).core_peak, a.core_peak);
  EXPECT_NE(&rebuilt.model().steady_factor(), &first.model().steady_factor());
  EXPECT_EQ(factorizations() - before, 2u);
}

}  // namespace
}  // namespace thermo::thermal
