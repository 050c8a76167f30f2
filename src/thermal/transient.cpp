#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "thermal/solver_cache.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

std::vector<double> ambient_state(const RCModel& model) {
  return std::vector<double>(model.node_count(), model.package().ambient);
}

TransientResult simulate_transient(const RCModel& model,
                                   const std::vector<double>& block_power,
                                   double duration,
                                   const std::vector<double>& initial,
                                   const TransientOptions& options) {
  THERMO_REQUIRE(duration >= 0.0 && std::isfinite(duration),
                 "duration must be non-negative and finite");
  THERMO_REQUIRE(options.dt > 0.0, "dt must be positive");
  THERMO_REQUIRE(initial.size() == model.node_count(),
                 "initial state size must equal the node count");

  const std::vector<double> power = model.expand_power(block_power);
  const double ambient = model.package().ambient;
  const std::size_t n = model.node_count();

  // Work in temperature rise over ambient: C x' = p - G x.
  std::vector<double> state(n);
  for (std::size_t i = 0; i < n; ++i) state[i] = initial[i] - ambient;

  TransientResult result;
  result.final_temperature = initial;
  result.peak_temperature = initial;

  auto record = [&](const std::vector<double>& rise) {
    for (std::size_t i = 0; i < n; ++i) {
      const double temp = ambient + rise[i];
      result.peak_temperature[i] = std::max(result.peak_temperature[i], temp);
    }
    if (options.observer) {
      std::vector<double> absolute(n);
      for (std::size_t i = 0; i < n; ++i) absolute[i] = ambient + rise[i];
      options.observer(static_cast<double>(result.steps) * options.dt, absolute);
    }
  };

  if (duration == 0.0) return result;

  // The (C/dt + G) factor is shared through the solver cache: repeated
  // sessions on the same model at the same dt — Algorithm 1 validates
  // thousands — pay the factorization once.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const auto stepper = cache.sparse_stepper(model, options.dt);
  double t = 0.0;
  while (t < duration - 1e-15) {
    const double step = std::min(options.dt, duration - t);
    if (step < options.dt * (1.0 - 1e-12)) {
      // Final fractional remainder: also cached, keyed by its own
      // (model, step). Real workloads re-simulate the same durations
      // (Algorithm 1 re-validates fixed-length sessions), so the
      // remainder factor is reused; a burst of one-off durations at
      // worst churns the LRU, it cannot grow the cache unboundedly.
      state = cache.sparse_stepper(model, step)->step(state, power);
    } else {
      state = stepper->step(state, power);
    }
    t += step;
    ++result.steps;
    record(state);
  }
  static obs::Counter& steps =
      obs::MetricsRegistry::instance().counter("thermal.steps");
  steps.add(result.steps);

  for (std::size_t i = 0; i < n; ++i) {
    result.final_temperature[i] = ambient + state[i];
  }
  return result;
}

}  // namespace thermo::thermal
