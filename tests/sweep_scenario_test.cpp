// ScenarioSweep: results must be bit-identical for 1 and N threads, must
// match the direct (unswept) solver calls, and per-scenario failures
// must be captured without poisoning the batch. Plus ThreadPool basics.
#include "sweep/scenario_sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "floorplan/generator.hpp"
#include "sweep/thread_pool.hpp"
#include "test_helpers.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/solver_cache.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"

namespace thermo::sweep {
namespace {

using thermo::testing::nine_floorplan;

std::vector<PowerScenario> mixed_scenarios(std::size_t blocks) {
  std::vector<PowerScenario> scenarios;
  for (std::size_t i = 0; i < 12; ++i) {
    PowerScenario s;
    s.name = "case" + std::to_string(i);
    s.block_power.assign(blocks, 0.0);
    for (std::size_t b = i % 3; b < blocks; b += 1 + i % 4) {
      s.block_power[b] = 2.0 + 0.5 * static_cast<double>(i);
    }
    s.duration = (i % 3 == 0) ? 0.01 : 0.0;  // mix transient and steady
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

class ScenarioSweepTest : public ::testing::Test {
 protected:
  thermal::RCModel model_{nine_floorplan(), thermal::PackageParams{}};
};

TEST_F(ScenarioSweepTest, OneAndManyThreadsProduceIdenticalResults) {
  const auto scenarios = mixed_scenarios(model_.block_count());

  SweepOptions serial_options;
  serial_options.threads = 1;
  SweepOptions parallel_options;
  parallel_options.threads = 4;
  const auto serial = ScenarioSweep(serial_options).run(model_, scenarios);
  const auto parallel = ScenarioSweep(parallel_options).run(model_, scenarios);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, scenarios[i].name);  // index order preserved
    EXPECT_TRUE(serial[i].ok);
    EXPECT_TRUE(parallel[i].ok);
    ASSERT_EQ(serial[i].block_peak.size(), parallel[i].block_peak.size());
    for (std::size_t b = 0; b < serial[i].block_peak.size(); ++b) {
      // Shared factor + independent back-substitution: bitwise equal.
      EXPECT_DOUBLE_EQ(serial[i].block_peak[b], parallel[i].block_peak[b]);
    }
    EXPECT_DOUBLE_EQ(serial[i].max_temperature, parallel[i].max_temperature);
    EXPECT_EQ(serial[i].hottest_block, parallel[i].hottest_block);
  }
}

TEST_F(ScenarioSweepTest, SteadyScenarioMatchesDirectSolve) {
  PowerScenario scenario;
  scenario.name = "steady";
  scenario.block_power.assign(model_.block_count(), 0.0);
  scenario.block_power[4] = 10.0;

  const auto outcomes = ScenarioSweep().run(model_, {scenario});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok);

  const thermal::SteadyStateResult direct =
      thermal::solve_steady_state(model_, scenario.block_power);
  for (std::size_t b = 0; b < model_.block_count(); ++b) {
    EXPECT_DOUBLE_EQ(outcomes[0].block_peak[b], direct.temperature[b]);
  }
  EXPECT_EQ(outcomes[0].hottest_block, 4u);
}

TEST_F(ScenarioSweepTest, TransientScenarioMatchesDirectSimulation) {
  PowerScenario scenario;
  scenario.name = "transient";
  scenario.block_power.assign(model_.block_count(), 0.0);
  scenario.block_power[0] = 12.0;
  scenario.duration = 0.02;

  SweepOptions options;
  options.dt = 1e-3;
  const auto outcomes = ScenarioSweep(options).run(model_, {scenario});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok);

  thermal::TransientOptions topt;
  topt.dt = options.dt;
  const thermal::TransientResult direct = thermal::simulate_transient(
      model_, scenario.block_power, scenario.duration,
      thermal::ambient_state(model_), topt);
  for (std::size_t b = 0; b < model_.block_count(); ++b) {
    EXPECT_DOUBLE_EQ(outcomes[0].block_peak[b], direct.peak_temperature[b]);
  }
}

TEST_F(ScenarioSweepTest, BadScenarioIsCapturedWithoutPoisoningTheBatch) {
  auto scenarios = mixed_scenarios(model_.block_count());
  scenarios[3].block_power.resize(2);  // wrong size: solver must reject

  const auto outcomes = ScenarioSweep().run(model_, scenarios);
  ASSERT_EQ(outcomes.size(), scenarios.size());
  EXPECT_FALSE(outcomes[3].ok);
  EXPECT_FALSE(outcomes[3].error.empty());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i != 3) {
      EXPECT_TRUE(outcomes[i].ok) << "scenario " << i << ": "
                                  << outcomes[i].error;
    }
  }
}

TEST_F(ScenarioSweepTest, MapReturnsResultsInIndexOrder) {
  SweepOptions options;
  options.threads = 4;
  const auto squares =
      ScenarioSweep(options).map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST_F(ScenarioSweepTest, MapPropagatesExceptions) {
  SweepOptions options;
  options.threads = 2;
  const ScenarioSweep sweeper(options);
  EXPECT_THROW(sweeper.map(8,
                           [](std::size_t i) -> int {
                             if (i == 5) throw std::runtime_error("boom");
                             return 0;
                           }),
               std::runtime_error);
}

TEST_F(ScenarioSweepTest, AnalyzersSharingAModelShareFactors) {
  // The pattern the examples and `thermosched sweep` rely on: analyzers
  // are per-thread, the model (and thus the cached factors) is shared.
  const auto model = std::make_shared<const thermal::RCModel>(
      nine_floorplan(), thermal::PackageParams{});
  SweepOptions options;
  options.threads = 3;
  const auto peaks =
      ScenarioSweep(options).map(6, [&](std::size_t i) {
        thermal::ThermalAnalyzer analyzer(model);
        std::vector<double> power(model->block_count(), 0.0);
        power[i % model->block_count()] = 10.0;
        return analyzer.simulate_session(power, 0.01).max_temperature;
      });
  // Same power pattern (indices 0..5 hit distinct blocks) — just assert
  // the fan-out ran and produced sane temperatures above ambient.
  for (double peak : peaks) EXPECT_GT(peak, 45.0);
}

TEST_F(ScenarioSweepTest, PrewarmBuildsExactlyTheFactorsWorkersUse) {
  // run() factors on the calling thread before the fan-out; the workers
  // must then find exactly those factors. A 300-node model with steady
  // and transient scenarios (durations a multiple of dt) needs one
  // factor of G and one stepper: two misses on a fresh model, however
  // many workers run.
  const thermal::RCModel model(
      floorplan::make_grid_floorplan(10, 29, 0.016, 0.016),
      thermal::PackageParams{});
  ASSERT_EQ(model.node_count(), 300u);
  thermal::ThermalSolverCache& cache = thermal::ThermalSolverCache::instance();
  cache.reset_stats();
  SweepOptions options;
  options.threads = 4;
  const auto outcomes =
      ScenarioSweep(options).run(model, mixed_scenarios(model.block_count()));
  for (const ScenarioOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
  }
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool remains usable afterwards.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace thermo::sweep
