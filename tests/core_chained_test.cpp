// Chained-session simulation: residual heat carrying between sessions.
#include <gtest/gtest.h>

#include <limits>

#include "core/safety_checker.hpp"
#include "core/thermal_scheduler.hpp"
#include "oracles/sequential_scheduler.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::core {
namespace {

using thermo::testing::nine_soc;

class ChainedTest : public ::testing::Test {
 protected:
  SocSpec soc_ = nine_soc(6.0);
  thermal::ThermalAnalyzer analyzer_{soc_.flp, soc_.package};
};

TEST_F(ChainedTest, SimulateSessionFromCarriesState) {
  const std::vector<double> power{6, 6, 6, 0, 0, 0, 0, 0, 0};
  std::vector<double> p(9, 0.0);
  p[0] = p[1] = p[2] = 6.0;
  auto first = analyzer_.simulate_session_from(
      p, 1.0, thermal::ambient_state(analyzer_.model()));
  // Running the same session again from the warm state must be hotter.
  auto second = analyzer_.simulate_session_from(p, 1.0, first.final_state);
  EXPECT_GT(second.session.max_temperature, first.session.max_temperature);
}

TEST_F(ChainedTest, CoolDownDrainsHeatFromTheDie) {
  std::vector<double> p(9, 6.0);
  auto warm = analyzer_.simulate_session_from(
      p, 1.0, thermal::ambient_state(analyzer_.model()));
  const auto cooled = analyzer_.cool_down(warm.final_state, 5.0);
  // Die blocks cool (heat may transiently *warm* the sink nodes as it
  // redistributes outward, so only block nodes are monotone here).
  for (std::size_t b = 0; b < soc_.core_count(); ++b) {
    EXPECT_LT(cooled[b], warm.final_state[b]);
  }
  // Stored thermal energy (sum of C * rise) strictly decreases.
  const auto& capacitance = analyzer_.model().capacitance();
  const double ambient = soc_.package.ambient;
  double energy_before = 0.0, energy_after = 0.0;
  for (std::size_t n = 0; n < cooled.size(); ++n) {
    energy_before += capacitance[n] * (warm.final_state[n] - ambient);
    energy_after += capacitance[n] * (cooled[n] - ambient);
  }
  EXPECT_LT(energy_after, energy_before);
  // Zero gap is the identity.
  const auto same = analyzer_.cool_down(warm.final_state, 0.0);
  EXPECT_EQ(same, warm.final_state);
  EXPECT_THROW(analyzer_.cool_down(warm.final_state, -1.0), InvalidArgument);
}

TEST_F(ChainedTest, ChainedCheckerIsAtLeastAsHotAsIndependent) {
  const SequentialScheduler scheduler;
  const ScheduleResult result = scheduler.generate(soc_, &analyzer_);

  // At the lowest limit every active core is a violation, so the
  // reports list each session core's peak.
  const double everything = std::numeric_limits<double>::lowest();
  const SafetyChecker independent(everything);
  const SafetyReport ri = independent.check(soc_, result.schedule, analyzer_);

  SafetyChecker::Options copt;
  copt.chained = true;
  copt.cooling_gap = 0.0;
  const SafetyChecker chained(everything, copt);
  const SafetyReport rc = chained.check(soc_, result.schedule, analyzer_);

  EXPECT_GE(rc.max_temperature + 1e-9, ri.max_temperature);
  ASSERT_EQ(rc.violations.size(), ri.violations.size());
  ASSERT_EQ(rc.violations.size(), soc_.core_count());
  for (std::size_t v = 0; v < rc.violations.size(); ++v) {
    // Later sessions start warm, so each chained core peaks at least as
    // hot as its independent counterpart.
    EXPECT_EQ(rc.violations[v].core, ri.violations[v].core);
    EXPECT_GE(rc.violations[v].peak_temperature + 1e-9,
              ri.violations[v].peak_temperature);
  }
}

TEST_F(ChainedTest, CoolingGapRestoresIndependence) {
  const SequentialScheduler scheduler;
  const ScheduleResult result = scheduler.generate(soc_, &analyzer_);

  SafetyChecker::Options no_gap;
  no_gap.chained = true;
  const SafetyReport hot =
      SafetyChecker(1000.0, no_gap).check(soc_, result.schedule, analyzer_);

  SafetyChecker::Options long_gap;
  long_gap.chained = true;
  long_gap.cooling_gap = 120.0;  // several package time constants
  const SafetyReport cooled = SafetyChecker(1000.0, long_gap)
                                  .check(soc_, result.schedule, analyzer_);

  const SafetyReport independent =
      SafetyChecker(1000.0).check(soc_, result.schedule, analyzer_);

  EXPECT_LE(cooled.max_temperature, hot.max_temperature + 1e-9);
  // With a long gap the chained result approaches the independent one.
  EXPECT_NEAR(cooled.max_temperature, independent.max_temperature, 1.0);
}

TEST_F(ChainedTest, ChainedCheckerFlagsViolationsIndependentMisses) {
  // Pick a TL between the independent max and the chained max of a
  // back-to-back schedule: independent says safe, chained says unsafe.
  ThermalSchedulerOptions options;
  options.temperature_limit = 110.0;
  options.stc_limit = 1e6;
  const ScheduleResult result =
      ThermalAwareScheduler(options).generate(soc_, analyzer_);

  const SafetyReport independent =
      SafetyChecker(1000.0).check(soc_, result.schedule, analyzer_);
  SafetyChecker::Options copt;
  copt.chained = true;
  const SafetyReport chained =
      SafetyChecker(1000.0, copt).check(soc_, result.schedule, analyzer_);

  if (chained.max_temperature > independent.max_temperature + 0.2) {
    const double tl =
        (chained.max_temperature + independent.max_temperature) / 2.0;
    EXPECT_TRUE(SafetyChecker(tl).check(soc_, result.schedule, analyzer_).safe);
    EXPECT_FALSE(
        SafetyChecker(tl, copt).check(soc_, result.schedule, analyzer_).safe);
  }
}

TEST_F(ChainedTest, NegativeCoolingGapRejected) {
  SafetyChecker::Options bad;
  bad.cooling_gap = -1.0;
  EXPECT_THROW(SafetyChecker(100.0, bad), InvalidArgument);
}

TEST_F(ChainedTest, ChainedSimulationRequiresTransientOracle) {
  thermal::ThermalAnalyzer::Options steady;
  steady.transient = false;
  thermal::ThermalAnalyzer steady_analyzer(soc_.flp, soc_.package, steady);
  std::vector<double> p(9, 1.0);
  EXPECT_THROW(
      steady_analyzer.simulate_session_from(
          p, 1.0, thermal::ambient_state(steady_analyzer.model())),
      InvalidArgument);
}

}  // namespace
}  // namespace thermo::core
