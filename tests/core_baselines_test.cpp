// Power-constrained and sequential baseline schedulers + safety checker.
#include <gtest/gtest.h>

#include <cmath>

#include "core/power_scheduler.hpp"
#include "core/safety_checker.hpp"
#include "oracles/sequential_scheduler.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::core {
namespace {

using thermo::testing::nine_soc;

class BaselineTest : public ::testing::Test {
 protected:
  SocSpec soc_ = nine_soc(6.0);
  thermal::ThermalAnalyzer analyzer_{soc_.flp, soc_.package};
};

TEST_F(BaselineTest, PowerSchedulerRespectsBudgetPerSession) {
  PowerSchedulerOptions options;
  options.power_limit = 20.0;  // 6 W cores -> at most 3 per session
  const PowerConstrainedScheduler scheduler(options);
  const ScheduleResult result = scheduler.generate(soc_);
  EXPECT_TRUE(result.schedule.is_complete(soc_));
  for (const TestSession& session : result.schedule.sessions) {
    double power = 0.0;
    for (std::size_t core : session.cores) power += soc_.tests[core].power;
    EXPECT_LE(power, options.power_limit + 1e-12);
    EXPECT_LE(session.size(), 3u);
  }
}

TEST_F(BaselineTest, PowerSchedulerPacksGreedily) {
  PowerSchedulerOptions options;
  options.power_limit = 18.0;  // exactly 3 cores of 6 W
  const PowerConstrainedScheduler scheduler(options);
  const ScheduleResult result = scheduler.generate(soc_);
  EXPECT_EQ(result.schedule.session_count(), 3u);
  EXPECT_DOUBLE_EQ(result.schedule_length, 3.0);
}

TEST_F(BaselineTest, PowerSchedulerIsBlindToPowerDensity) {
  // Two equal-power sessions, one dense one sparse: the power scheduler
  // accepts both; the thermal outcome differs. (The paper's Figure 1
  // argument, on the 3x3 grid.)
  SocSpec soc = nine_soc(6.0);
  const PowerConstrainedScheduler scheduler(
      PowerSchedulerOptions{.power_limit = 18.0, .sort_by_power = false});
  const ScheduleResult result = scheduler.generate(soc, &analyzer_);
  ASSERT_EQ(result.outcomes.size(), 3u);
  for (const SessionOutcome& outcome : result.outcomes) {
    EXPECT_GT(outcome.max_temperature, soc.package.ambient);
  }
}

TEST_F(BaselineTest, OverBudgetCoreGetsDedicatedSessionWithNote) {
  SocSpec soc = nine_soc(6.0);
  soc.tests[2].power = 50.0;
  PowerSchedulerOptions options;
  options.power_limit = 20.0;
  const PowerConstrainedScheduler scheduler(options);
  const ScheduleResult result = scheduler.generate(soc);
  EXPECT_TRUE(result.schedule.is_complete(soc));
  bool found_solo = false;
  for (const TestSession& session : result.schedule.sessions) {
    if (session.contains(2)) {
      EXPECT_EQ(session.size(), 1u);
      found_solo = true;
    }
  }
  EXPECT_TRUE(found_solo);
  ASSERT_EQ(result.notes.size(), 1u);
  EXPECT_NE(result.notes[0].find("exceeds"), std::string::npos);
}

TEST_F(BaselineTest, PowerSchedulerWithoutAnalyzerSkipsSimulation) {
  const PowerConstrainedScheduler scheduler(
      PowerSchedulerOptions{.power_limit = 30.0});
  const ScheduleResult result = scheduler.generate(soc_, nullptr);
  EXPECT_DOUBLE_EQ(result.simulation_effort, 0.0);
  EXPECT_DOUBLE_EQ(result.max_temperature, 0.0);
  EXPECT_TRUE(result.schedule.is_complete(soc_));
}

TEST_F(BaselineTest, PowerSchedulerOptionValidation) {
  PowerSchedulerOptions bad;
  bad.power_limit = 0.0;
  EXPECT_THROW(PowerConstrainedScheduler{bad}, InvalidArgument);
}

TEST_F(BaselineTest, SequentialSchedulerOneCorePerSession) {
  const SequentialScheduler scheduler;
  const ScheduleResult result = scheduler.generate(soc_, &analyzer_);
  EXPECT_EQ(result.schedule.session_count(), soc_.core_count());
  EXPECT_TRUE(result.schedule.is_complete(soc_));
  EXPECT_DOUBLE_EQ(result.schedule_length,
                   static_cast<double>(soc_.core_count()));
  EXPECT_EQ(result.outcomes.size(), soc_.core_count());
}

TEST_F(BaselineTest, SequentialIsCoolestSchedule) {
  // No concurrency -> per-session temperatures are the per-core solos,
  // which lower-bound any concurrent schedule's max temperature.
  const SequentialScheduler seq;
  const ScheduleResult sres = seq.generate(soc_, &analyzer_);
  const PowerConstrainedScheduler pow(
      PowerSchedulerOptions{.power_limit = 60.0});
  const ScheduleResult pres = pow.generate(soc_, &analyzer_);
  EXPECT_LE(sres.max_temperature, pres.max_temperature + 1e-9);
}

TEST_F(BaselineTest, SafetyCheckerAcceptsCoolSchedule) {
  const SequentialScheduler scheduler;
  const ScheduleResult result = scheduler.generate(soc_, &analyzer_);
  const SafetyChecker checker(150.0);
  const SafetyReport report =
      checker.check(soc_, result.schedule, analyzer_);
  EXPECT_TRUE(report.safe);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_LT(report.max_temperature, 150.0);
}

TEST_F(BaselineTest, SafetyCheckerFlagsHotSessions) {
  TestSchedule all_at_once;
  TestSession everything;
  for (std::size_t i = 0; i < soc_.core_count(); ++i) {
    everything.cores.push_back(i);
  }
  all_at_once.sessions.push_back(everything);
  // Pick a limit between ambient and the all-on peak.
  const SafetyChecker checker(soc_.package.ambient + 5.0);
  const SafetyReport report = checker.check(soc_, all_at_once, analyzer_);
  EXPECT_FALSE(report.safe);
  EXPECT_FALSE(report.violations.empty());
  EXPECT_GT(report.max_temperature, soc_.package.ambient + 5.0);
  const std::string text = report.to_string(soc_);
  EXPECT_NE(text.find("UNSAFE"), std::string::npos);
}

TEST_F(BaselineTest, SafetyCheckerValidatesSchedule) {
  TestSchedule bad;
  bad.sessions.push_back({{0}});
  bad.sessions.push_back({{0}});  // duplicate
  const SafetyChecker checker(100.0);
  EXPECT_THROW(checker.check(soc_, bad, analyzer_), LogicError);
}

TEST_F(BaselineTest, SafetyCheckerRejectsNonFiniteLimit) {
  EXPECT_THROW(SafetyChecker(std::nan("")), InvalidArgument);
}

}  // namespace
}  // namespace thermo::core
