// Tests of Algorithm 1 (the thermal-aware scheduler).
#include "core/thermal_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/safety_checker.hpp"
#include "core/session_model.hpp"
#include "obs/metrics.hpp"
#include "soc/alpha.hpp"
#include "soc/synthetic.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::core {
namespace {

using thermo::testing::nine_soc;

ThermalSchedulerOptions basic_options(double tl = 200.0, double stcl = 1e7) {
  ThermalSchedulerOptions options;
  options.temperature_limit = tl;
  options.stc_limit = stcl;
  return options;
}

class ThermalSchedulerTest : public ::testing::Test {
 protected:
  SocSpec soc_ = nine_soc(6.0);
  thermal::ThermalAnalyzer analyzer_{soc_.flp, soc_.package};
};

TEST_F(ThermalSchedulerTest, SchedulesEveryCoreExactlyOnce) {
  const ThermalAwareScheduler scheduler(basic_options());
  const ScheduleResult result = scheduler.generate(soc_, analyzer_);
  EXPECT_TRUE(result.schedule.is_complete(soc_));
}

TEST_F(ThermalSchedulerTest, RelaxedLimitsAllowLargeSessions) {
  // TL far above any reachable temperature and unbounded STCL: only the
  // enclosed-centre constraint forces more than one session.
  const ThermalAwareScheduler scheduler(basic_options());
  const ScheduleResult result = scheduler.generate(soc_, analyzer_);
  EXPECT_LE(result.schedule.session_count(), 3u);
  EXPECT_EQ(result.discarded_sessions, 0u);
  EXPECT_DOUBLE_EQ(result.simulation_effort, result.schedule_length);
}

TEST_F(ThermalSchedulerTest, TightStclForcesSequentialSchedule) {
  // STCL below every solo STC: the force-first rule degrades to one core
  // per session.
  const ThermalAwareScheduler scheduler(basic_options(200.0, 1e-9));
  const ScheduleResult result = scheduler.generate(soc_, analyzer_);
  EXPECT_EQ(result.schedule.session_count(), soc_.core_count());
  for (const TestSession& session : result.schedule.sessions) {
    EXPECT_EQ(session.size(), 1u);
  }
}

TEST_F(ThermalSchedulerTest, ResultIsThermallySafe) {
  const double tl = 120.0;
  const ThermalAwareScheduler scheduler(basic_options(tl));
  const ScheduleResult result = scheduler.generate(soc_, analyzer_);
  const SafetyChecker checker(tl);
  const SafetyReport report = checker.check(soc_, result.schedule, analyzer_);
  EXPECT_TRUE(report.safe) << report.to_string(soc_);
  EXPECT_LT(result.max_temperature, tl);
}

TEST_F(ThermalSchedulerTest, BcmtMatchesSequentialSimulation) {
  const SoloPrepass prepass = solo_prepass(soc_, analyzer_);
  ASSERT_EQ(prepass.bcmt.size(), soc_.core_count());
  for (std::size_t i = 0; i < soc_.core_count(); ++i) {
    TestSession solo;
    solo.cores.push_back(i);
    const auto sim =
        analyzer_.simulate_session(solo.power_map(soc_), solo.length(soc_));
    EXPECT_NEAR(prepass.bcmt[i], sim.peak_temperature[i], 1e-9);
  }
}

TEST_F(ThermalSchedulerTest, PrecheckEffortIsSeparateFromMainEffort) {
  // The pre-pass (9 cores x 1 s) leaves nothing on the analyzer, and the
  // result's effort counts the validations alone: with no discards it
  // is the schedule length, not 9 s more.
  solo_prepass(soc_, analyzer_);
  EXPECT_EQ(analyzer_.simulation_effort(), 0.0);
  EXPECT_EQ(analyzer_.simulation_count(), 0u);
  const ThermalAwareScheduler scheduler(basic_options());
  const ScheduleResult result = scheduler.generate(soc_, analyzer_);
  ASSERT_EQ(result.discarded_sessions, 0u);
  EXPECT_DOUBLE_EQ(result.simulation_effort, result.schedule_length);
  EXPECT_EQ(result.simulation_count, result.schedule.session_count());
}

TEST_F(ThermalSchedulerTest, SoloViolationThrowsByDefault) {
  // TL below the coolest solo temperature: the pre-pass must refuse.
  const ThermalAwareScheduler scheduler(basic_options(46.0));
  EXPECT_THROW(scheduler.generate(soc_, analyzer_), InvalidArgument);
}

TEST_F(ThermalSchedulerTest, SoloViolationRaiseLimitPolicy) {
  ThermalSchedulerOptions options = basic_options(46.0);
  options.solo_policy = SoloViolationPolicy::kRaiseLimit;
  const ThermalAwareScheduler scheduler(options);
  const ScheduleResult result = scheduler.generate(soc_, analyzer_);
  EXPECT_TRUE(result.schedule.is_complete(soc_));
  EXPECT_GT(scheduler.effective_temperature_limit(), 46.0);
  EXPECT_FALSE(result.notes.empty());
}

TEST_F(ThermalSchedulerTest, DeterministicAcrossRuns) {
  const ThermalAwareScheduler scheduler(basic_options(120.0, 1e6));
  const ScheduleResult a = scheduler.generate(soc_, analyzer_);
  const ScheduleResult b = scheduler.generate(soc_, analyzer_);
  ASSERT_EQ(a.schedule.session_count(), b.schedule.session_count());
  for (std::size_t s = 0; s < a.schedule.sessions.size(); ++s) {
    EXPECT_EQ(a.schedule.sessions[s].cores, b.schedule.sessions[s].cores);
  }
  EXPECT_DOUBLE_EQ(a.simulation_effort, b.simulation_effort);
}

TEST_F(ThermalSchedulerTest, EffortEqualsLengthWhenNoDiscards) {
  const ThermalAwareScheduler scheduler(basic_options());
  const ScheduleResult result = scheduler.generate(soc_, analyzer_);
  EXPECT_EQ(result.discarded_sessions, 0u);
  EXPECT_DOUBLE_EQ(result.simulation_effort, result.schedule_length);
  EXPECT_EQ(result.simulation_count, result.schedule.session_count());
}

TEST_F(ThermalSchedulerTest, OutcomesMatchSchedule) {
  const ThermalAwareScheduler scheduler(basic_options(120.0));
  const ScheduleResult result = scheduler.generate(soc_, analyzer_);
  ASSERT_EQ(result.outcomes.size(), result.schedule.session_count());
  for (std::size_t s = 0; s < result.outcomes.size(); ++s) {
    EXPECT_EQ(result.outcomes[s].session.cores,
              result.schedule.sessions[s].cores);
    EXPECT_LT(result.outcomes[s].max_temperature, 120.0);
    EXPECT_DOUBLE_EQ(result.outcomes[s].length, 1.0);
  }
}

TEST_F(ThermalSchedulerTest, AttemptCapThrowsLogicError) {
  ThermalSchedulerOptions options = basic_options(120.0);
  options.max_attempts = 1;
  options.weight_factor = 1.0 + 1e-12;  // effectively no adaptation
  const ThermalAwareScheduler scheduler(options);
  // With a low TL this SoC needs several sessions -> more than 1 attempt.
  EXPECT_THROW(scheduler.generate(soc_, analyzer_), LogicError);
}

TEST_F(ThermalSchedulerTest, OptionValidation) {
  ThermalSchedulerOptions bad;
  bad.stc_limit = 0.0;
  EXPECT_THROW(ThermalAwareScheduler{bad}, InvalidArgument);
  bad = ThermalSchedulerOptions{};
  bad.weight_factor = 0.9;
  EXPECT_THROW(ThermalAwareScheduler{bad}, InvalidArgument);
  bad = ThermalSchedulerOptions{};
  bad.max_attempts = 0;
  EXPECT_THROW(ThermalAwareScheduler{bad}, InvalidArgument);
}

TEST_F(ThermalSchedulerTest, MismatchedAnalyzerRejected) {
  const SocSpec other = soc::alpha_soc();
  thermal::ThermalAnalyzer other_analyzer(other.flp, other.package);
  const ThermalAwareScheduler scheduler(basic_options());
  EXPECT_THROW(scheduler.generate(soc_, other_analyzer), InvalidArgument);
}

// Core-order policies all produce complete, safe schedules.
class CoreOrderProperty : public ::testing::TestWithParam<CoreOrder> {};

TEST_P(CoreOrderProperty, CompleteAndSafeUnderAnyOrder) {
  const SocSpec soc = nine_soc(6.0);
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  ThermalSchedulerOptions options;
  options.temperature_limit = 110.0;
  options.stc_limit = 2000.0;
  options.core_order = GetParam();
  const ThermalAwareScheduler scheduler(options);
  const ScheduleResult result = scheduler.generate(soc, analyzer);
  EXPECT_TRUE(result.schedule.is_complete(soc));
  EXPECT_LT(result.max_temperature, 110.0);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, CoreOrderProperty,
                         ::testing::Values(CoreOrder::kInputOrder,
                                           CoreOrder::kDescendingPower,
                                           CoreOrder::kDescendingSoloTc,
                                           CoreOrder::kAscendingSoloTc));

// STCL sweep property: tighter STCL never uses *more* simulation effort
// than it saves in this regime, and schedules stay complete and safe.
class StclSweepProperty : public ::testing::TestWithParam<double> {};

TEST_P(StclSweepProperty, CompleteSafeAndAccounted) {
  const SocSpec soc = soc::alpha_soc();
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  ThermalSchedulerOptions options;
  options.temperature_limit = 165.0;
  options.stc_limit = GetParam();
  options.model.stc_scale = soc::alpha_stc_scale();
  const ThermalAwareScheduler scheduler(options);
  const ScheduleResult result = scheduler.generate(soc, analyzer);
  EXPECT_TRUE(result.schedule.is_complete(soc));
  EXPECT_LT(result.max_temperature, 165.0);
  EXPECT_GE(result.simulation_effort, result.schedule_length);
  // effort = committed sessions + discarded attempts (1 s each here).
  EXPECT_DOUBLE_EQ(result.simulation_effort,
                   result.schedule_length +
                       static_cast<double>(result.discarded_sessions));
}

INSTANTIATE_TEST_SUITE_P(StclRange, StclSweepProperty,
                         ::testing::Values(20.0, 30.0, 40.0, 50.0, 60.0, 70.0,
                                           80.0, 90.0, 100.0));

// Algorithm 1's obs counters on a 300-core synthetic SoC at 3x power
// and a loose STCL (TL binds, so the reweight loop runs: 60 sessions, 17
// discarded at this seed): validations, discards and the thermal solve
// counts match the result exactly, and the TC*P*W terms evaluated per STC
// evaluation are bounded by 1 + the largest lateral degree — the O(deg)
// cost of incremental session construction as a deterministic count.
TEST(ThermalSchedulerObs, CountersMatchTheResultAndCostIsPerNeighbour) {
  Rng rng(7);
  soc::SyntheticOptions synthetic;
  synthetic.core_count = 300;
  SocSpec soc = soc::make_synthetic_soc(rng, synthetic);
  for (CoreTest& test : soc.tests) test.power *= 3.0;
  thermal::ThermalAnalyzer::Options oracle;
  oracle.transient = false;
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package, oracle);
  ThermalSchedulerOptions options = basic_options(155.0, 1000.0);
  options.solo_policy = SoloViolationPolicy::kRaiseLimit;
  options.model.stc_scale = 10.0;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  const auto value = [&](const char* name) {
    return registry.counter(name).value();
  };
  const std::uint64_t evaluations_before = value("core.stc_evaluations");
  const std::uint64_t terms_before = value("core.stc_terms");
  const std::uint64_t validations_before = value("core.validations");
  const std::uint64_t discarded_before = value("core.discarded_sessions");
  const std::uint64_t solves_before = value("thermal.solves");
  const std::uint64_t solo_lookups_before = value("thermal.solo_lookups");
  const std::uint64_t steps_before = value("thermal.steps");
  const ScheduleResult result =
      ThermalAwareScheduler(options).generate(soc, analyzer);
  const std::uint64_t evaluations =
      value("core.stc_evaluations") - evaluations_before;
  const std::uint64_t terms = value("core.stc_terms") - terms_before;

  ASSERT_EQ(result.schedule.session_count(), 60u);
  ASSERT_EQ(result.discarded_sessions, 17u);
  EXPECT_EQ(value("core.validations") - validations_before,
            result.simulation_count);
  EXPECT_EQ(value("core.discarded_sessions") - discarded_before,
            result.discarded_sessions);
  // The steady oracle: one self-resistance table read per core in the
  // pre-pass and per one-core validation, one path solve per larger
  // validation, no steps. A one-core validation that failed would have
  // thrown, so every one-core validation was committed.
  const auto one_core = static_cast<std::uint64_t>(std::count_if(
      result.outcomes.begin(), result.outcomes.end(),
      [](const SessionOutcome& o) { return o.session.size() == 1; }));
  EXPECT_GT(one_core, 0u);
  EXPECT_EQ(value("thermal.solo_lookups") - solo_lookups_before,
            soc.core_count() + one_core);
  EXPECT_EQ(value("thermal.solves") - solves_before,
            result.simulation_count - one_core);
  EXPECT_EQ(value("thermal.steps"), steps_before);

  std::vector<std::uint64_t> degree(soc.core_count(), 0);
  for (const floorplan::Adjacency& adj : soc.flp.adjacencies()) {
    ++degree[adj.a];
    ++degree[adj.b];
  }
  const std::uint64_t max_degree =
      *std::max_element(degree.begin(), degree.end());
  EXPECT_GE(evaluations, soc.core_count());
  EXPECT_GE(terms, evaluations);
  EXPECT_LE(terms, (1 + max_degree) * evaluations);
}

// Session construction evaluates only live candidates (docs/SCHEDULING.md
// "Live candidates"). A 300-core SoC at 3x power under a tight STCL, a
// quarter of its solo STC terms, and a TL no session reaches: no session
// is discarded, so every weight stays 1 and a core is live in a round iff
// it is unscheduled and its solo term is within STCL. The
// `core.stc_evaluations` count is at most the sum of the live candidates
// at each session's start, and strictly below the full scans' count, the
// unscheduled cores at each session's start.
TEST(ThermalSchedulerObs, ConstructionEvaluatesOnlyLiveCandidates) {
  Rng rng(7);
  soc::SyntheticOptions synthetic;
  synthetic.core_count = 300;
  SocSpec soc = soc::make_synthetic_soc(rng, synthetic);
  for (CoreTest& test : soc.tests) test.power *= 3.0;
  thermal::ThermalAnalyzer::Options oracle;
  oracle.transient = false;
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package, oracle);

  const std::size_t n = soc.core_count();
  const SessionThermalModel model(soc.flp, soc.package, {});
  const std::vector<bool> none(n, false);
  constexpr double kStcScale = 10.0;
  std::vector<double> solo_term(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double p = soc.tests[i].power;
    solo_term[i] = model.thermal_characteristic(none, i, p) * p * 1.0 * kStcScale;
  }
  std::vector<double> sorted = solo_term;
  std::sort(sorted.begin(), sorted.end());
  ThermalSchedulerOptions options = basic_options(1000.0, sorted[n / 4]);
  options.model.stc_scale = kStcScale;

  obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("core.stc_evaluations");
  const std::uint64_t before = counter.value();
  const ScheduleResult result =
      ThermalAwareScheduler(options).generate(soc, analyzer);
  const std::uint64_t evaluations = counter.value() - before;
  ASSERT_EQ(result.discarded_sessions, 0u);

  std::vector<bool> scheduled(n, false);
  std::uint64_t live = 0;
  std::uint64_t full_scan = 0;
  for (const TestSession& session : result.schedule.sessions) {
    for (std::size_t i = 0; i < n; ++i) {
      if (scheduled[i]) continue;
      ++full_scan;
      live += solo_term[i] <= options.stc_limit;
    }
    for (std::size_t core : session.cores) scheduled[core] = true;
  }
  EXPECT_LE(evaluations, live);
  EXPECT_LT(evaluations, full_scan);
  EXPECT_LT(4 * evaluations, full_scan);  // most cores are hopeless
}

}  // namespace
}  // namespace thermo::core
