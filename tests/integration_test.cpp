// End-to-end integration tests: the paper's experiments in miniature.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>

#include "core/exact_scheduler.hpp"
#include "core/power_scheduler.hpp"
#include "core/safety_checker.hpp"
#include "core/thermal_scheduler.hpp"
#include "soc/alpha.hpp"
#include "soc/fig1.hpp"
#include "thermal/analyzer.hpp"

namespace thermo {
namespace {

// ---- Figure 1: the motivational example end to end ----

TEST(Fig1Integration, BothSessionsPassThePowerCheck) {
  const core::SocSpec soc = soc::fig1_soc();
  for (const core::TestSession& session :
       {soc::fig1_session_ts1(soc), soc::fig1_session_ts2(soc)}) {
    double power = 0.0;
    for (std::size_t core : session.cores) power += soc.tests[core].power;
    EXPECT_LE(power, soc::kFig1PowerLimit);
  }
}

TEST(Fig1Integration, DenseSessionRunsMuchHotterAtEqualPower) {
  const core::SocSpec soc = soc::fig1_soc();
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  const auto ts1 = soc::fig1_session_ts1(soc);
  const auto ts2 = soc::fig1_session_ts2(soc);
  const auto sim1 = analyzer.simulate_session(ts1.power_map(soc), 1.0);
  const auto sim2 = analyzer.simulate_session(ts2.power_map(soc), 1.0);
  // Paper: 125.5 C vs 67.5 C (58 K gap). Our package reproduces the
  // shape: a gap of several tens of kelvin at identical session power.
  EXPECT_GT(sim1.max_temperature, sim2.max_temperature + 25.0);
}

TEST(Fig1Integration, PowerSchedulerAcceptsTheHotSession) {
  // The core argument: a 45 W-budget scheduler will happily co-schedule
  // the three dense cores.
  const core::SocSpec soc = soc::fig1_soc();
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  core::PowerSchedulerOptions options;
  options.power_limit = soc::kFig1PowerLimit;
  options.sort_by_power = false;
  const core::PowerConstrainedScheduler scheduler(options);
  const core::ScheduleResult result = scheduler.generate(soc, &analyzer);
  // Find the session containing C2; it must contain other cores too
  // (concurrency), and run hot.
  const std::size_t c2 = *soc.flp.index_of("C2");
  bool found = false;
  for (const auto& outcome : result.outcomes) {
    if (outcome.session.contains(c2)) {
      found = true;
      EXPECT_GT(outcome.session.size(), 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Fig1Integration, ThermalSchedulerSeparatesTheDenseCores) {
  const core::SocSpec soc = soc::fig1_soc();
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  core::ThermalSchedulerOptions options;
  options.temperature_limit = 90.0;  // below the dense session's peak
  options.stc_limit = 1e6;           // let TL do the work
  const core::ThermalAwareScheduler scheduler(options);
  const core::ScheduleResult result = scheduler.generate(soc, analyzer);
  EXPECT_TRUE(result.schedule.is_complete(soc));
  EXPECT_LT(result.max_temperature, 90.0);
  // C2, C3, C4 all together under 90 C is impossible (the Figure-1
  // session peaks far above); they must be split.
  const std::size_t c2 = *soc.flp.index_of("C2");
  const std::size_t c3 = *soc.flp.index_of("C3");
  const std::size_t c4 = *soc.flp.index_of("C4");
  for (const auto& session : result.schedule.sessions) {
    EXPECT_FALSE(session.contains(c2) && session.contains(c3) &&
                 session.contains(c4));
  }
}

// ---- Table 1 / Figure 5 shapes in miniature ----

struct SweepPoint {
  double tl;
  double stcl;
  core::ScheduleResult result;
};

class Table1Mini : public ::testing::Test {
 protected:
  static core::ScheduleResult run(double tl, double stcl) {
    const core::SocSpec soc = soc::alpha_soc();
    thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
    core::ThermalSchedulerOptions options;
    options.temperature_limit = tl;
    options.stc_limit = stcl;
    options.model.stc_scale = soc::alpha_stc_scale();
    return core::ThermalAwareScheduler(options).generate(soc, analyzer);
  }
};

// Table 1's shape over its whole grid, the cells that
// bench/golden/sweep_alpha_tl<T>.txt pins: at every STCL the length is
// non-increasing in TL, every cell stays below its TL, and in the tight
// corner (STCL <= 30, TL >= 160) the effort equals the length with no
// discards, the paper's "for very tight constraints (STCL <= 30) the
// simulation effort equals the length of the generated test schedule".
TEST_F(Table1Mini, LengthNonIncreasingInTemperatureLimit) {
  std::size_t tight_cells = 0;
  for (int stcl = 20; stcl <= 100; stcl += 10) {
    double previous = std::numeric_limits<double>::infinity();
    for (int tl = 145; tl <= 185; tl += 5) {
      SCOPED_TRACE("TL=" + std::to_string(tl) +
                   " STCL=" + std::to_string(stcl));
      const core::ScheduleResult r = run(tl, stcl);
      EXPECT_LE(r.schedule_length, previous);
      previous = r.schedule_length;
      EXPECT_LT(r.max_temperature, tl);
      if (stcl <= 30 && tl >= 160) {
        ++tight_cells;
        EXPECT_EQ(r.discarded_sessions, 0u);
        EXPECT_EQ(r.simulation_effort, r.schedule_length);
      }
    }
  }
  EXPECT_EQ(tight_cells, 12u);
}

TEST_F(Table1Mini, RelaxedStclShortensScheduleAtHighTl) {
  const double tight = run(185.0, 20.0).schedule_length;
  const double relaxed = run(185.0, 100.0).schedule_length;
  EXPECT_GE(tight, relaxed);
  EXPECT_GT(tight, 0.0);
}

TEST_F(Table1Mini, RelaxedStclCostsMoreEffortAtLowTl) {
  const auto tight = run(145.0, 20.0);
  const auto relaxed = run(145.0, 100.0);
  EXPECT_GT(relaxed.simulation_effort / relaxed.schedule_length,
            tight.simulation_effort / tight.schedule_length * 0.99);
  EXPECT_GT(relaxed.discarded_sessions, 0u);
}

TEST_F(Table1Mini, TightStclAtHighTlSucceedsFirstAttempt) {
  // The paper: "for very tight constraints (STCL <= 30) the simulation
  // effort equals the length of the generated test schedule".
  const auto r = run(185.0, 20.0);
  EXPECT_EQ(r.discarded_sessions, 0u);
  EXPECT_DOUBLE_EQ(r.simulation_effort, r.schedule_length);
}

TEST_F(Table1Mini, StclDominatesTlAtHighTlLowStcl) {
  // Paper: "for TL=185 and STCL=30 the maximum temperature ... stays
  // under 145 C": with a tight STCL the schedule never gets close to TL.
  const auto r = run(185.0, 20.0);
  EXPECT_LT(r.max_temperature, 185.0 - 15.0);
}

TEST_F(Table1Mini, MaxTemperatureApproachesTlForShortSchedules) {
  const auto r = run(185.0, 100.0);
  EXPECT_LT(r.max_temperature, 185.0);
  EXPECT_GT(r.max_temperature, 165.0);  // within ~20 K of the limit
}

TEST_F(Table1Mini, EverySweepPointIsSafeAndComplete) {
  const core::SocSpec soc = soc::alpha_soc();
  for (double tl : {150.0, 170.0}) {
    for (double stcl : {30.0, 80.0}) {
      const auto r = run(tl, stcl);
      EXPECT_TRUE(r.schedule.is_complete(soc));
      EXPECT_LT(r.max_temperature, tl);
    }
  }
}

// ---- Sub-zero ambient: maxima over the sessions, not from 0 C ----

// PackageParams accepts any finite ambient. At -40 C Figure 1's sparse
// session TS2 peaks below 0 C, so a maximum seeded at 0 C would report
// 0 for the session and the schedule.
TEST(SubZeroAmbient, SafetyReportGivesTheSparseSessionItsPeak) {
  core::SocSpec soc = soc::fig1_soc();
  soc.package.ambient = -40.0;
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  core::TestSchedule schedule;
  schedule.sessions.push_back(soc::fig1_session_ts2(soc));
  const core::TestSession& ts2 = schedule.sessions[0];
  const thermal::SessionSimulation sim =
      analyzer.simulate_session(ts2.power_map(soc), ts2.length(soc));
  double peak = -std::numeric_limits<double>::infinity();
  for (std::size_t core : ts2.cores) {
    peak = std::max(peak, sim.peak_temperature[core]);
  }
  ASSERT_LT(peak, 0.0);
  ASSERT_GT(peak, soc.package.ambient);
  for (const bool chained : {false, true}) {
    SCOPED_TRACE(chained ? "chained" : "independent");
    const core::SafetyReport report =
        core::SafetyChecker(0.0, {.chained = chained, .cooling_gap = 0.0})
            .check(soc, schedule, analyzer);
    EXPECT_EQ(report.max_temperature, peak);
    EXPECT_TRUE(report.violations.empty());
    EXPECT_TRUE(report.safe);
  }
  EXPECT_EQ(core::SafetyChecker(0.0)
                .check(soc, core::TestSchedule{}, analyzer)
                .max_temperature,
            0.0);
}

// At -200 C every session of the Alpha SoC, and of Figure 1's SoC,
// stays below 0 C: each scheduler's max_temperature is its hottest
// outcome, and the safety check's is its hottest session.
TEST(SubZeroAmbient, SchedulersReportTheirHottestSession) {
  const auto hottest = [](const core::ScheduleResult& result) {
    double peak = -std::numeric_limits<double>::infinity();
    for (const core::SessionOutcome& outcome : result.outcomes) {
      peak = std::max(peak, outcome.max_temperature);
    }
    return peak;
  };
  core::SocSpec alpha = soc::alpha_soc();
  alpha.package.ambient = -200.0;
  thermal::ThermalAnalyzer analyzer(alpha.flp, alpha.package);

  core::ThermalSchedulerOptions options;
  options.temperature_limit = -50.0;
  options.stc_limit = 50.0;
  options.model.stc_scale = soc::alpha_stc_scale();
  const core::ScheduleResult thermal_aware =
      core::ThermalAwareScheduler(options).generate(alpha, analyzer);
  ASSERT_GT(thermal_aware.outcomes.size(), 1u);
  EXPECT_LT(thermal_aware.max_temperature, 0.0);
  EXPECT_EQ(thermal_aware.max_temperature, hottest(thermal_aware));

  // The check steps each session; the scheduler summed unit-step
  // responses, within 1e-12 relative on the rise (docs/SOLVERS.md).
  const core::SafetyReport report =
      core::SafetyChecker(-50.0).check(alpha, thermal_aware.schedule, analyzer);
  const double rise = thermal_aware.max_temperature - alpha.package.ambient;
  EXPECT_NEAR(report.max_temperature - alpha.package.ambient, rise,
              1e-12 * rise);
  EXPECT_TRUE(report.safe);

  const core::ScheduleResult power =
      core::PowerConstrainedScheduler(
          core::PowerSchedulerOptions{.power_limit = 60.0})
          .generate(alpha, &analyzer);
  ASSERT_GT(power.outcomes.size(), 1u);
  EXPECT_LT(power.max_temperature, 0.0);
  EXPECT_EQ(power.max_temperature, hottest(power));

  core::SocSpec fig1 = soc::fig1_soc();
  fig1.package.ambient = -200.0;
  thermal::ThermalAnalyzer fig1_analyzer(fig1.flp, fig1.package);
  const core::ScheduleResult exact =
      core::ExactScheduler(core::ExactSchedulerOptions{
                               .temperature_limit = -150.0})
          .generate(fig1, fig1_analyzer);
  ASSERT_GT(exact.outcomes.size(), 1u);
  EXPECT_LT(exact.max_temperature, 0.0);
  EXPECT_EQ(exact.max_temperature, hottest(exact));
}

}  // namespace
}  // namespace thermo
