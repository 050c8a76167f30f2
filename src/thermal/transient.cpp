#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "thermal/solver_cache.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

namespace {

/// Runs the step schedule of a `duration`-second simulation at step `dt`
/// (duration > 0), calling `advance(stepper)` once per step, and adds
/// the step count to `thermal.steps`. Returns the step count.
template <class Advance>
std::size_t run_steps(const RCModel& model, double duration, double dt,
                      const Advance& advance) {
  // The (C/dt + G) factor is shared through the solver cache: repeated
  // sessions on the same model at the same dt — Algorithm 1 validates
  // thousands — pay the factorization once.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const auto stepper = cache.sparse_stepper(model, dt);
  std::size_t steps = 0;
  // Whole steps are counted by index, as core::stcl_range counts its
  // values: summing t += dt drifts, so a 2 s session at dt = 1 ms would
  // end 1.1e-13 s short and take a 2001st step that factors its own
  // stepper. A remainder of duration - t (the summed t, so its length
  // keeps its bits) runs only when duration/dt lies more than
  // kSliver·max(1, duration/dt) from a whole number, or when there is
  // no whole step at all. It is cached by its own (model, step) key;
  // Algorithm 1 re-validates fixed-length sessions, so it is reused.
  constexpr double kSliver = 1e-9;
  const double ratio = duration / dt;
  const double tolerance = kSliver * std::max(1.0, ratio);
  const double whole = std::floor(ratio + tolerance);
  double t = 0.0;
  for (double k = 0.0; k < whole; k += 1.0) {
    advance(*stepper);
    ++steps;
    t += dt;
  }
  if (ratio - whole > tolerance || whole == 0.0) {
    const double rest = duration - t;
    if (rest > 0.0) {
      advance(*cache.sparse_stepper(model, std::min(dt, rest)));
      ++steps;
    }
  }
  static obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("thermal.steps");
  counter.add(steps);
  return steps;
}

}  // namespace

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
  result.peak_temperature = initial;

  auto record = [&](const std::vector<double>& rise) {
    for (std::size_t i = 0; i < n; ++i) {
      const double temp = ambient + rise[i];
      result.peak_temperature[i] = std::max(result.peak_temperature[i], temp);
    }
  };

  if (duration == 0.0) {
    result.final_temperature = initial;
    return result;
  }

  // Every step reuses `state` and `work`, so stepping allocates nothing.
  std::vector<double> work;
  result.steps = run_steps(model, duration, options.dt,
                           [&](const linalg::SparseImplicitStepper& by) {
                             by.step_in_place(state, power, work);
                             record(state);
                           });

  result.final_temperature.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.final_temperature[i] = ambient + state[i];
  }
  return result;
}

std::vector<double> unit_step_response(const RCModel& model,
                                       std::size_t block, double duration,
                                       const TransientOptions& options) {
  THERMO_REQUIRE(block < model.block_count(), "block index out of range");
  THERMO_REQUIRE(duration > 0.0 && std::isfinite(duration),
                 "duration must be positive and finite");
  THERMO_REQUIRE(options.dt > 0.0, "dt must be positive");
  std::vector<double> power(model.node_count(), 0.0);
  power[block] = 1.0;
  std::vector<double> rise(model.node_count(), 0.0);
  std::vector<double> work;
  run_steps(model, duration, options.dt,
            [&](const linalg::SparseImplicitStepper& by) {
              by.step_in_place(rise, power, work);
            });
  rise.resize(model.block_count());
  return rise;
}

}  // namespace thermo::thermal
