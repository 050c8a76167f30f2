// Tests of the paper's test session thermal model (Section 2): the
// equivalent resistance reduction, the TC/STC definitions, and the three
// modelling modifications.
#include "core/session_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "soc/alpha.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "test_helpers.hpp"
#include "thermal/rc_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::core {
namespace {

using thermo::testing::idx;
using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

class SessionModelTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = nine_floorplan();
  thermal::PackageParams pkg_;
  SessionThermalModel model_{fp_, pkg_, {}};

  std::vector<bool> only(std::initializer_list<const char*> names) const {
    std::vector<bool> mask(fp_.size(), false);
    for (const char* n : names) mask[idx(fp_, n)] = true;
    return mask;
  }
};

TEST_F(SessionModelTest, LateralResistanceMatchesSlabFormula) {
  // Two adjacent 2 mm blocks: R = (1 mm + 1 mm)/(k * t * 2 mm).
  const double expected =
      (1e-3 + 1e-3) / (pkg_.k_die * pkg_.t_die * 2e-3);
  EXPECT_NEAR(model_.lateral_resistance(idx(fp_, "b0_0"), idx(fp_, "b0_1")),
              expected, 1e-9);
}

TEST_F(SessionModelTest, NonAdjacentCoresHaveInfiniteLateralResistance) {
  EXPECT_TRUE(std::isinf(
      model_.lateral_resistance(idx(fp_, "b0_0"), idx(fp_, "b2_2"))));
}

TEST_F(SessionModelTest, InteriorBlockHasInfiniteBoundaryResistance) {
  EXPECT_TRUE(std::isinf(model_.boundary_resistance(idx(fp_, "b1_1"))));
}

TEST_F(SessionModelTest, CornerBlockHasTwoBoundaryPaths) {
  // Corner: two exposed 2 mm sides, each R = 1 mm/(k*t*2 mm), in parallel.
  const double single = 1e-3 / (pkg_.k_die * pkg_.t_die * 2e-3);
  EXPECT_NEAR(model_.boundary_resistance(idx(fp_, "b0_0")), single / 2.0,
              1e-9);
}

TEST_F(SessionModelTest, SoloCoreSeesAllNeighboursAsGround) {
  // Centre block alone: 4 lateral paths, no boundary.
  const double lateral =
      model_.lateral_resistance(idx(fp_, "b1_1"), idx(fp_, "b0_1"));
  const double rth =
      model_.equivalent_resistance(only({"b1_1"}), idx(fp_, "b1_1"));
  EXPECT_NEAR(rth, lateral / 4.0, 1e-9);
}

TEST_F(SessionModelTest, ActiveNeighboursAreRemovedFromGroundPaths) {
  // Modification 2: making a neighbour active removes its path, raising
  // Rth of the centre core from L/4 to L/3.
  const double lateral =
      model_.lateral_resistance(idx(fp_, "b1_1"), idx(fp_, "b0_1"));
  const double rth = model_.equivalent_resistance(only({"b1_1", "b0_1"}),
                                                  idx(fp_, "b1_1"));
  EXPECT_NEAR(rth, lateral / 3.0, 1e-9);
}

TEST_F(SessionModelTest, FullyEnclosedCoreHasInfiniteRth) {
  // Centre core with all four neighbours active: no path to ground.
  const auto mask = only({"b1_1", "b0_1", "b1_0", "b1_2", "b2_1"});
  EXPECT_TRUE(
      std::isinf(model_.equivalent_resistance(mask, idx(fp_, "b1_1"))));
}

TEST_F(SessionModelTest, RthMonotoneInActiveNeighbourCount) {
  const std::size_t centre = idx(fp_, "b1_1");
  double previous = model_.equivalent_resistance(only({"b1_1"}), centre);
  const char* neighbours[] = {"b0_1", "b1_0", "b1_2"};
  std::vector<const char*> active_names{"b1_1"};
  for (const char* n : neighbours) {
    active_names.push_back(n);
    std::vector<bool> mask(fp_.size(), false);
    for (const char* name : active_names) mask[idx(fp_, name)] = true;
    const double rth = model_.equivalent_resistance(mask, centre);
    EXPECT_GT(rth, previous);
    previous = rth;
  }
}

TEST_F(SessionModelTest, ThermalCharacteristicIsPowerTimesRth) {
  const std::size_t corner = idx(fp_, "b0_0");
  const auto mask = only({"b0_0"});
  const double rth = model_.equivalent_resistance(mask, corner);
  EXPECT_NEAR(model_.thermal_characteristic(mask, corner, 5.0), 5.0 * rth,
              1e-12);
  EXPECT_DOUBLE_EQ(model_.thermal_characteristic(mask, corner, 0.0), 0.0);
}

TEST_F(SessionModelTest, SessionCharacteristicIsMaxOverMembers) {
  const auto mask = only({"b0_0", "b2_2"});
  std::vector<double> power(fp_.size(), 0.0);
  power[idx(fp_, "b0_0")] = 2.0;
  power[idx(fp_, "b2_2")] = 6.0;
  const std::vector<double> weight(fp_.size(), 1.0);
  const double stc = model_.session_characteristic(mask, power, weight);
  const double tc_hot = model_.thermal_characteristic(mask, idx(fp_, "b2_2"), 6.0);
  EXPECT_NEAR(stc, tc_hot * 6.0, 1e-9);
}

TEST_F(SessionModelTest, EmptySessionHasZeroStc) {
  const std::vector<bool> none(fp_.size(), false);
  const std::vector<double> power(fp_.size(), 5.0);
  const std::vector<double> weight(fp_.size(), 1.0);
  EXPECT_DOUBLE_EQ(model_.session_characteristic(none, power, weight), 0.0);
}

TEST_F(SessionModelTest, WeightsScaleStcLinearly) {
  const auto mask = only({"b0_0"});
  const std::vector<double> power(fp_.size(), 4.0);
  std::vector<double> weight(fp_.size(), 1.0);
  const double base = model_.session_characteristic(mask, power, weight);
  weight[idx(fp_, "b0_0")] = 1.1;
  EXPECT_NEAR(model_.session_characteristic(mask, power, weight), base * 1.1,
              1e-9);
}

TEST_F(SessionModelTest, StcScaleAppliesUniformly) {
  SessionModelOptions scaled;
  scaled.stc_scale = 0.01;
  const SessionThermalModel scaled_model(fp_, pkg_, scaled);
  const auto mask = only({"b0_0", "b0_2"});
  const std::vector<double> power(fp_.size(), 4.0);
  const std::vector<double> weight(fp_.size(), 1.0);
  EXPECT_NEAR(scaled_model.session_characteristic(mask, power, weight),
              0.01 * model_.session_characteristic(mask, power, weight),
              1e-12);
}

TEST_F(SessionModelTest, EnclosedMemberMakesStcInfinite) {
  const auto mask = only({"b1_1", "b0_1", "b1_0", "b1_2", "b2_1"});
  const std::vector<double> power(fp_.size(), 1.0);
  const std::vector<double> weight(fp_.size(), 1.0);
  EXPECT_TRUE(
      std::isinf(model_.session_characteristic(mask, power, weight)));
}

TEST_F(SessionModelTest, VerticalPathExtensionLowersRth) {
  SessionModelOptions with_vertical;
  with_vertical.include_vertical_path = true;
  const SessionThermalModel extended(fp_, pkg_, with_vertical);
  const auto mask = only({"b1_1"});
  const std::size_t centre = idx(fp_, "b1_1");
  EXPECT_LT(extended.equivalent_resistance(mask, centre),
            model_.equivalent_resistance(mask, centre));
}

TEST_F(SessionModelTest, VerticalPathMakesEnclosedCoreFinite) {
  SessionModelOptions with_vertical;
  with_vertical.include_vertical_path = true;
  const SessionThermalModel extended(fp_, pkg_, with_vertical);
  const auto mask = only({"b1_1", "b0_1", "b1_0", "b1_2", "b2_1"});
  const double rth = extended.equivalent_resistance(mask, idx(fp_, "b1_1"));
  EXPECT_TRUE(std::isfinite(rth));
  EXPECT_NEAR(rth, extended.vertical_resistance(idx(fp_, "b1_1")), 1e-9);
}

TEST_F(SessionModelTest, VerticalResistanceShrinksWithArea) {
  const floorplan::Floorplan fp("two", {{"small", 1e-3, 1e-3, 0.0, 0.0},
                                        {"large", 4e-3, 1e-3, 1e-3, 0.0}});
  const SessionThermalModel m(fp, pkg_, {});
  EXPECT_GT(m.vertical_resistance(0), m.vertical_resistance(1));
}

TEST_F(SessionModelTest, PaperExampleStructure) {
  // Paper Figures 2-4: in session {2,4,5} on a 6-block layout, core 2
  // keeps paths to passive neighbours and the boundary only. Reproduce
  // the structural claim on the quad floorplan: for session {a, d},
  // both members keep boundary paths plus paths to the two passive
  // blocks; Rth equals the parallel combination explicitly.
  const floorplan::Floorplan quad = quad_floorplan();
  const SessionThermalModel m(quad, pkg_, {});
  std::vector<bool> mask(4, false);
  mask[idx(quad, "a")] = true;
  mask[idx(quad, "d")] = true;
  const double r_ab = m.lateral_resistance(idx(quad, "a"), idx(quad, "b"));
  const double r_ac = m.lateral_resistance(idx(quad, "a"), idx(quad, "c"));
  const double r_boundary = m.boundary_resistance(idx(quad, "a"));
  const double expected =
      1.0 / (1.0 / r_ab + 1.0 / r_ac + 1.0 / r_boundary);
  EXPECT_NEAR(m.equivalent_resistance(mask, idx(quad, "a")), expected, 1e-12);
}

TEST_F(SessionModelTest, ValidatesArguments) {
  const std::vector<bool> short_mask(3, false);
  EXPECT_THROW(model_.equivalent_resistance(short_mask, 0), InvalidArgument);
  const std::vector<bool> mask(fp_.size(), false);
  EXPECT_THROW(model_.equivalent_resistance(mask, 99), InvalidArgument);
  EXPECT_THROW(model_.thermal_characteristic(mask, 0, -1.0), InvalidArgument);
  SessionModelOptions bad;
  bad.stc_scale = 0.0;
  EXPECT_THROW(SessionThermalModel(fp_, pkg_, bad), InvalidArgument);
}

TEST(SessionThermalModel, RejectsEmptyFloorplan) {
  EXPECT_THROW(SessionThermalModel(floorplan::Floorplan(),
                                   thermal::PackageParams{}, {}),
               InvalidArgument);
}

// The session model's die resistances are the oracle's: every lateral
// resistance is exactly 1 / RCModel's conductance across that adjacency,
// every vertical one 1 / its conductance into the spreader centre.
TEST(SessionModelOracleAgreement, DieResistancesAreExactlyTheRcConductances) {
  std::vector<SocSpec> socs{soc::alpha_soc(), soc::fig1_soc()};
  for (std::size_t cores : {8, 246, 1000}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      Rng rng(seed);
      soc::SyntheticOptions options;
      options.core_count = cores;
      socs.push_back(soc::make_synthetic_soc(rng, options));
    }
  }
  std::size_t pairs = 0;
  for (const SocSpec& soc : socs) {
    SCOPED_TRACE(soc.name);
    const SessionThermalModel session(soc.flp, soc.package);
    const thermal::RCModel rc(soc.flp, soc.package);
    for (const floorplan::Adjacency& adj : soc.flp.adjacencies()) {
      EXPECT_EQ(session.lateral_resistance(adj.a, adj.b),
                1.0 / rc.conductance_between(adj.a, adj.b));
      ++pairs;
    }
    for (std::size_t i = 0; i < soc.flp.size(); ++i) {
      EXPECT_EQ(session.vertical_resistance(i),
                1.0 / rc.conductance_between(i, rc.spreader_center_index()));
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 10000u);
}

}  // namespace
}  // namespace thermo::core
