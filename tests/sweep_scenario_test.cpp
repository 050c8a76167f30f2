// sweep::for_each_index: every index runs exactly once on
// min(threads, n) workers, the first exception surfaces after the other
// indices ran, each worker records one `sweep.tasks` count, and thermal
// solves fanned over one shared model are bit-identical to the same
// solves on the calling thread.
#include "sweep/for_each_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"

namespace thermo::sweep {
namespace {

using thermo::testing::nine_floorplan;

constexpr double kDt = 1e-3;

/// One power map: simulated transiently for `duration` > 0 s from
/// ambient, else solved to steady state.
struct PowerCase {
  std::vector<double> block_power;
  double duration = 0.0;
};

/// Twelve power maps over `blocks` blocks; every third is transient.
std::vector<PowerCase> mixed_cases(std::size_t blocks) {
  std::vector<PowerCase> cases;
  for (std::size_t i = 0; i < 12; ++i) {
    PowerCase c;
    c.block_power.assign(blocks, 0.0);
    for (std::size_t b = i % 3; b < blocks; b += 1 + i % 4) {
      c.block_power[b] = 2.0 + 0.5 * static_cast<double>(i);
    }
    c.duration = (i % 3 == 0) ? 0.01 : 0.0;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Peak node temperatures of `c`, computed directly on this thread.
std::vector<double> direct_peak(const thermal::RCModel& model,
                                const PowerCase& c) {
  if (c.duration > 0.0) {
    thermal::TransientOptions options;
    options.dt = kDt;
    return thermal::simulate_transient(model, c.block_power, c.duration,
                                       thermal::ambient_state(model), options)
        .peak_temperature;
  }
  return thermal::solve_steady_state(model, c.block_power).temperature;
}

class ScenarioSweepTest : public ::testing::Test {
 protected:
  /// direct_peak of every case, fanned across `threads` workers that
  /// share model_ (and so its cached factors).
  std::vector<std::vector<double>> fanned_peaks(
      const std::vector<PowerCase>& cases, std::size_t threads) const {
    std::vector<std::vector<double>> peaks(cases.size());
    for_each_index(threads, cases.size(), [&](std::size_t i) {
      peaks[i] = direct_peak(model_, cases[i]);
    });
    return peaks;
  }

  thermal::RCModel model_{nine_floorplan(), thermal::PackageParams{}};
};

TEST_F(ScenarioSweepTest, OneAndManyThreadsProduceIdenticalResults) {
  const auto cases = mixed_cases(model_.block_count());
  // Shared factor + independent back-substitution: bitwise equal.
  EXPECT_EQ(fanned_peaks(cases, 1), fanned_peaks(cases, 4));
}

TEST_F(ScenarioSweepTest, SteadyScenarioMatchesDirectSolve) {
  const auto cases = mixed_cases(model_.block_count());
  const auto peaks = fanned_peaks(cases, 4);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].duration > 0.0) continue;
    EXPECT_EQ(peaks[i], direct_peak(model_, cases[i])) << "case " << i;
  }
}

TEST_F(ScenarioSweepTest, TransientScenarioMatchesDirectSimulation) {
  const auto cases = mixed_cases(model_.block_count());
  const auto peaks = fanned_peaks(cases, 4);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].duration == 0.0) continue;
    EXPECT_EQ(peaks[i], direct_peak(model_, cases[i])) << "case " << i;
  }
}

TEST_F(ScenarioSweepTest, MapReturnsResultsInIndexOrder) {
  constexpr std::size_t n = 100;
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const std::size_t threads : {0u, 1u, 3u, 64u}) {
    std::vector<std::atomic<int>> calls(n);
    std::vector<std::size_t> squares(n);
    const std::size_t workers =
        for_each_index(threads, n, [&](std::size_t i) {
          ++calls[i];
          squares[i] = i * i;
        });
    EXPECT_EQ(workers, std::min(threads == 0 ? hardware : threads, n))
        << "threads=" << threads;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(calls[i].load(), 1) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(squares[i], i * i);
    }
  }
}

TEST_F(ScenarioSweepTest, EmptyRangeReturnsZeroAndNeverCallsFn) {
  for (const std::size_t threads : {0u, 1u, 4u}) {
    bool called = false;
    EXPECT_EQ(for_each_index(threads, 0, [&](std::size_t) { called = true; }),
              0u);
    EXPECT_FALSE(called);
  }
}

TEST_F(ScenarioSweepTest, MapPropagatesExceptions) {
  // The throw at i = 5 must neither stop the other seven indices nor be
  // lost: it is rethrown once they have all run, inline or fanned out.
  for (const std::size_t threads : {1u, 2u}) {
    std::atomic<int> others{0};
    EXPECT_THROW(for_each_index(threads, 8,
                                [&](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("boom");
                                  ++others;
                                }),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(others.load(), 7) << "threads=" << threads;
  }
}

TEST_F(ScenarioSweepTest, SweepTasksCountWorkersNotIndices) {
  obs::Counter& tasks = obs::MetricsRegistry::instance().counter("sweep.tasks");
  const auto noop = [](std::size_t) {};
  const std::uint64_t before = tasks.value();
  EXPECT_EQ(for_each_index(3, 50, noop), 3u);
  EXPECT_EQ(tasks.value(), before + 3);  // one per worker loop
  EXPECT_EQ(for_each_index(1, 50, noop), 1u);
  EXPECT_EQ(tasks.value(), before + 3);  // inline: nothing recorded
}

TEST_F(ScenarioSweepTest, AnalyzersSharingAModelShareFactors) {
  // The pattern the examples and `thermosched sweep` rely on: analyzers
  // are per-thread, the model (and thus the cached factors) is shared.
  const auto model = std::make_shared<const thermal::RCModel>(
      nine_floorplan(), thermal::PackageParams{});
  std::vector<double> peaks(6);
  for_each_index(3, peaks.size(), [&](std::size_t i) {
    thermal::ThermalAnalyzer analyzer(model);
    std::vector<double> power(model->block_count(), 0.0);
    power[i % model->block_count()] = 10.0;
    peaks[i] = analyzer.simulate_session(power, 0.01).max_temperature;
  });
  // Indices 0..5 hit distinct blocks — just assert the fan-out ran and
  // produced sane temperatures above ambient.
  for (double peak : peaks) EXPECT_GT(peak, 45.0);
}

}  // namespace
}  // namespace thermo::sweep
