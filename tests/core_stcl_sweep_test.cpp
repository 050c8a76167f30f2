// core::sweep_stcl: the parallel STCL scan on a prepared geometry must
// match per-value direct scheduler runs exactly, for any thread count.
#include "core/stcl_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "soc/synthetic.hpp"
#include "test_helpers.hpp"
#include "thermal/analyzer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::core {
namespace {

using thermo::testing::nine_soc;

TEST(StclSweepTest, MatchesDirectSchedulerRunsForAnyThreadCount) {
  const SocSpec soc = nine_soc();
  const PreparedModel prepared(soc);
  const auto& model = prepared.rc_model();
  const std::vector<double> stcls{20.0, 40.0, 80.0};

  StclSweepConfig config;
  config.scheduler.temperature_limit = 150.0;

  config.threads = 1;
  const auto serial = sweep_stcl({soc, prepared}, stcls, config);
  config.threads = 3;
  const auto parallel = sweep_stcl({soc, prepared}, stcls, config);

  ASSERT_EQ(serial.size(), stcls.size());
  ASSERT_EQ(parallel.size(), stcls.size());
  for (std::size_t i = 0; i < stcls.size(); ++i) {
    // Reference: a plain scheduler run with its own analyzer.
    thermal::ThermalAnalyzer analyzer(model);
    ThermalSchedulerOptions options = config.scheduler;
    options.stc_limit = stcls[i];
    const ThermalAwareScheduler direct_scheduler(options);
    const ScheduleResult direct = direct_scheduler.generate(soc, analyzer);

    for (const auto& points : {serial, parallel}) {
      EXPECT_DOUBLE_EQ(points[i].stcl, stcls[i]);
      EXPECT_DOUBLE_EQ(points[i].schedule_length, direct.schedule_length);
      EXPECT_DOUBLE_EQ(points[i].simulation_effort, direct.simulation_effort);
      EXPECT_EQ(points[i].sessions, direct.schedule.session_count());
      EXPECT_DOUBLE_EQ(points[i].max_temperature, direct.max_temperature);
      EXPECT_EQ(points[i].discarded_sessions, direct.discarded_sessions);
      EXPECT_DOUBLE_EQ(points[i].effective_temperature_limit,
                       direct_scheduler.effective_temperature_limit());
    }
  }
}

TEST(StclSweepTest, RangeIncludesBothEndpoints) {
  const std::vector<double> values = stcl_range(20.0, 100.0, 10.0);
  ASSERT_EQ(values.size(), 9u);
  EXPECT_DOUBLE_EQ(values.front(), 20.0);
  // The last value may carry FP accumulation error but must be the
  // 100.0 endpoint within the documented tolerance.
  EXPECT_NEAR(values.back(), 100.0, 1e-9);
}

TEST(StclSweepTest, RangeRejectsBadParameters) {
  EXPECT_THROW(stcl_range(20.0, 100.0, 0.0), InvalidArgument);
  EXPECT_THROW(stcl_range(20.0, 100.0, -5.0), InvalidArgument);
  EXPECT_THROW(stcl_range(100.0, 20.0, 10.0), InvalidArgument);
  EXPECT_EQ(stcl_range(50.0, 50.0, 10.0), std::vector<double>{50.0});
}

TEST(StclSweepTest, RangeRejectsAbsurdPointCounts) {
  // A step below min's ULP used to make the accumulating loop spin
  // forever; both of these must throw instead of hanging or OOM-ing.
  EXPECT_THROW(stcl_range(1e17, 2e17, 7.0), InvalidArgument);
  EXPECT_THROW(stcl_range(0.0, 1e9, 1e-6), InvalidArgument);
}

TEST(StclSweepTest, EmptyValueListYieldsEmptyResult) {
  const SocSpec soc = nine_soc();
  const PreparedModel prepared(soc);
  EXPECT_TRUE(sweep_stcl({soc, prepared}, {}, StclSweepConfig{}).empty());
}

// A 300-core synthetic SoC at 3x power under the steady oracle, with TL
// at the fourth-hottest solo temperature, so four cores violate TL alone
// and the solo policy has work to do (kRaiseLimit notes at most four,
// since each raise lifts TL past some of them).
struct HotSoc {
  SocSpec soc;
  std::shared_ptr<const PreparedModel> prepared;
  std::shared_ptr<const thermal::RCModel> model;  ///< prepared's RC model
  thermal::ThermalAnalyzer::Options oracle;
  double tl = 0.0;

  PreparedSoc prepared_soc() const { return {soc, *prepared}; }
};

HotSoc hot_soc() {
  Rng rng(7);
  soc::SyntheticOptions synthetic;
  synthetic.core_count = 300;
  HotSoc hot{soc::make_synthetic_soc(rng, synthetic), nullptr, nullptr, {},
             0.0};
  for (CoreTest& test : hot.soc.tests) test.power *= 3.0;
  hot.prepared = std::make_shared<const PreparedModel>(hot.soc);
  hot.model = hot.prepared->rc_model();
  hot.oracle.transient = false;
  thermal::ThermalAnalyzer analyzer(hot.model, hot.oracle);
  std::vector<double> bcmt = solo_prepass(hot.soc, analyzer).bcmt;
  std::sort(bcmt.begin(), bcmt.end());
  hot.tl = bcmt[bcmt.size() - 4];
  return hot;
}

void expect_same_result(const ScheduleResult& a, const ScheduleResult& b) {
  ASSERT_EQ(a.schedule.session_count(), b.schedule.session_count());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t s = 0; s < a.schedule.session_count(); ++s) {
    EXPECT_EQ(a.schedule.sessions[s].cores, b.schedule.sessions[s].cores);
    EXPECT_EQ(a.outcomes[s].length, b.outcomes[s].length);
    EXPECT_EQ(a.outcomes[s].max_temperature, b.outcomes[s].max_temperature);
  }
  EXPECT_EQ(a.schedule_length, b.schedule_length);
  EXPECT_EQ(a.simulation_effort, b.simulation_effort);
  EXPECT_EQ(a.max_temperature, b.max_temperature);
  EXPECT_EQ(a.discarded_sessions, b.discarded_sessions);
  EXPECT_EQ(a.simulation_count, b.simulation_count);
  EXPECT_EQ(a.notes, b.notes);
}

// The sweep runs the solo pre-pass once (n table reads, not n per
// point) and hands it to every point; each point still equals its own
// generate() run, and a prepared run with a handed pre-pass gives
// generate() bit-identical results, notes included, under the
// raise-limit policy (the throw policy: the next test).
TEST(StclSweepTest, SharedPrepassRunsOnceAndMatchesPerPointRuns) {
  const HotSoc hot = hot_soc();
  const std::vector<double> stcls{300.0, 600.0, 1000.0};
  obs::Counter& solo_lookups =
      obs::MetricsRegistry::instance().counter("thermal.solo_lookups");
  StclSweepConfig config;
  config.scheduler.temperature_limit = hot.tl;
  config.scheduler.solo_policy = SoloViolationPolicy::kRaiseLimit;
  config.scheduler.model.stc_scale = 10.0;
  config.analyzer = hot.oracle;
  config.threads = 2;
  const std::uint64_t before = solo_lookups.value();
  const auto points = sweep_stcl(hot.prepared_soc(), stcls, config);
  const std::uint64_t sweep_lookups = solo_lookups.value() - before;
  // The pre-pass's n reads, plus every point's one-core validations,
  // counted on the direct runs below (a point equals its direct run).
  std::uint64_t one_core = 0;

  ASSERT_EQ(points.size(), stcls.size());
  for (std::size_t i = 0; i < stcls.size(); ++i) {
    thermal::ThermalAnalyzer analyzer(hot.model, hot.oracle);
    ThermalSchedulerOptions options = config.scheduler;
    options.stc_limit = stcls[i];
    const ThermalAwareScheduler scheduler(options);
    const ScheduleResult direct = scheduler.generate(hot.soc, analyzer);
    one_core += static_cast<std::uint64_t>(std::count_if(
        direct.outcomes.begin(), direct.outcomes.end(),
        [](const SessionOutcome& o) { return o.session.size() == 1; }));
    EXPECT_FALSE(direct.notes.empty());
    EXPECT_EQ(points[i].stcl, stcls[i]);
    EXPECT_EQ(points[i].schedule_length, direct.schedule_length);
    EXPECT_EQ(points[i].simulation_effort, direct.simulation_effort);
    EXPECT_EQ(points[i].sessions, direct.schedule.session_count());
    EXPECT_EQ(points[i].max_temperature, direct.max_temperature);
    EXPECT_EQ(points[i].discarded_sessions, direct.discarded_sessions);
    EXPECT_EQ(points[i].effective_temperature_limit,
              scheduler.effective_temperature_limit());

    const SoloPrepass prepass = solo_prepass(hot.soc, analyzer);
    expect_same_result(
        scheduler.generate(hot.prepared_soc(), analyzer, prepass), direct);
  }
  EXPECT_EQ(sweep_lookups, hot.soc.core_count() + one_core);
}

TEST(StclSweepTest, SharedPrepassKeepsTheSoloViolationError) {
  const HotSoc hot = hot_soc();
  StclSweepConfig config;
  config.scheduler.temperature_limit = hot.tl;
  config.scheduler.model.stc_scale = 10.0;
  config.analyzer = hot.oracle;
  const auto error = [](auto&& run) {
    try {
      run();
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  ThermalSchedulerOptions options = config.scheduler;
  options.stc_limit = 300.0;
  thermal::ThermalAnalyzer analyzer(hot.model, hot.oracle);
  const std::string direct = error(
      [&] { ThermalAwareScheduler(options).generate(hot.soc, analyzer); });
  EXPECT_NE(direct.find("violates TL alone"), std::string::npos) << direct;
  EXPECT_EQ(error([&] {
              sweep_stcl(hot.prepared_soc(), {300.0, 600.0}, config);
            }),
            direct);
}

// The transient oracle's pre-pass steps every solo session in full: no
// self-resistance table reads (its points against direct runs: the first
// test above).
TEST(StclSweepTest, TransientOracleMakesNoEntrySolves) {
  const SocSpec soc = nine_soc();
  const PreparedModel prepared(soc);
  StclSweepConfig config;
  config.scheduler.temperature_limit = 150.0;
  obs::Counter& solo_lookups =
      obs::MetricsRegistry::instance().counter("thermal.solo_lookups");
  const std::uint64_t before = solo_lookups.value();
  EXPECT_EQ(sweep_stcl({soc, prepared}, {20.0, 40.0, 80.0}, config).size(),
            3u);
  EXPECT_EQ(solo_lookups.value(), before);
}

}  // namespace
}  // namespace thermo::core
