#include "sweep/scenario_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "sweep/thread_pool.hpp"
#include "thermal/solver_cache.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"

namespace thermo::sweep {

ScenarioSweep::ScenarioSweep(SweepOptions options) : options_(options) {
  threads_ = options.threads != 0
                 ? options.threads
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  THERMO_REQUIRE(options_.dt > 0.0, "sweep dt must be positive");
}

void ScenarioSweep::for_each_index(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  if (threads_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(threads_, n));
  // One task per worker pulling indices from a shared counter: cheap
  // dynamic load balancing (scenarios can differ wildly in cost — a
  // steady solve vs a long transient) without a task allocation per
  // index.
  std::atomic<std::size_t> next{0};
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  pool.wait_idle();
}

std::vector<ScenarioOutcome> ScenarioSweep::run(
    const thermal::RCModel& model,
    const std::vector<PowerScenario>& scenarios) const {
  // Factor eagerly on the calling thread — exactly the factors the
  // workers' solves below look up — so workers start with a warm cache
  // instead of serializing on the first lookup's factorization.
  bool any_steady = false, any_transient = false;
  for (const PowerScenario& s : scenarios) {
    if (s.duration > 0.0) {
      any_transient = true;
    } else {
      any_steady = true;
    }
  }
  auto& cache = thermal::ThermalSolverCache::instance();
  if (any_steady) cache.sparse_cholesky(model);
  if (any_transient) cache.sparse_stepper(model, options_.dt);

  std::vector<ScenarioOutcome> outcomes(scenarios.size());
  for_each_index(scenarios.size(), [&](std::size_t i) {
    const PowerScenario& scenario = scenarios[i];
    ScenarioOutcome& out = outcomes[i];
    out.name = scenario.name;
    try {
      if (scenario.duration > 0.0) {
        thermal::TransientOptions topt;
        topt.dt = options_.dt;
        const thermal::TransientResult result = thermal::simulate_transient(
            model, scenario.block_power, scenario.duration,
            thermal::ambient_state(model), topt);
        out.block_peak.assign(
            result.peak_temperature.begin(),
            result.peak_temperature.begin() +
                static_cast<std::ptrdiff_t>(model.block_count()));
      } else {
        const thermal::SteadyStateResult result =
            thermal::solve_steady_state(model, scenario.block_power);
        out.block_peak.assign(
            result.temperature.begin(),
            result.temperature.begin() +
                static_cast<std::ptrdiff_t>(model.block_count()));
      }
      const auto hottest =
          std::max_element(out.block_peak.begin(), out.block_peak.end());
      out.max_temperature = *hottest;
      out.hottest_block =
          static_cast<std::size_t>(hottest - out.block_peak.begin());
      out.ok = true;
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = e.what();
    }
  });
  return outcomes;
}

}  // namespace thermo::sweep
