// ScenarioSweep: fan a batch of scenarios across a thread pool, sharing
// one RCModel's cached factorizations.
//
// The paper explores schedules one knob setting at a time (TL, STCL,
// TAM width); every setting re-validates candidate sessions against the
// SAME floorplan. This layer batches those explorations: the
// conductance / backward-Euler factors are computed once (through
// thermal::ThermalSolverCache, keyed by RCModel::identity()) and every
// worker thread back-substitutes against them concurrently — the
// factor objects are const and thread-safe.
//
// Determinism: results are written into a slot per scenario index, and
// each scenario's computation is independent and itself deterministic,
// so the output is bit-identical for 1 and N threads (tested in
// tests/sweep_scenario_test.cpp). Only completion ORDER varies.
//
// Two entry points:
//  * run(model, scenarios) — thermal power scenarios (steady-state or
//    transient) against one shared model; per-scenario errors are
//    captured in the outcome instead of aborting the batch.
//  * map(n, fn) — generic deterministic fan-out for anything else, e.g.
//    one full Algorithm 1 run per STCL value (see
//    examples/explore_stcl.cpp and `thermosched sweep`). Exceptions
//    propagate: the first one thrown is rethrown on the caller.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "thermal/rc_model.hpp"

namespace thermo::sweep {

struct SweepOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency.
  std::size_t threads = 0;
  /// Backward-Euler step for transient (duration > 0) scenarios.
  double dt = 1e-3;
};

/// One workload to evaluate against the shared model.
struct PowerScenario {
  std::string name;
  /// Per-block dissipation [W]; size must equal the model's block count.
  std::vector<double> block_power;
  /// Seconds to simulate transiently from ambient; 0 = steady state.
  double duration = 0.0;
};

struct ScenarioOutcome {
  std::string name;
  bool ok = false;
  std::string error;                ///< set when !ok
  std::vector<double> block_peak;   ///< per-block peak temperature [C]
  double max_temperature = 0.0;     ///< hottest block [C]
  std::size_t hottest_block = 0;
};

class ScenarioSweep {
 public:
  explicit ScenarioSweep(SweepOptions options = {});

  /// Threads a run will actually use.
  std::size_t thread_count() const { return threads_; }

  /// Evaluates every scenario against `model`; outcome i corresponds to
  /// scenarios[i]. Solver failures (and bad power vectors) land in the
  /// outcome's error field; the rest of the batch is unaffected.
  std::vector<ScenarioOutcome> run(
      const thermal::RCModel& model,
      const std::vector<PowerScenario>& scenarios) const;

  /// Generic deterministic fan-out: invokes fn(0..n-1) across the pool
  /// and returns results in index order. fn must be safe to call
  /// concurrently with itself. The first exception thrown by any call is
  /// rethrown here.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) const {
    using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    // std::vector<bool> packs bits: concurrent writes to adjacent slots
    // would touch the same byte — a data race. Return int/char instead.
    static_assert(!std::is_same_v<R, bool>,
                  "ScenarioSweep::map callback must not return bool");
    std::vector<R> out(n);
    for_each_index(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn) const;

  std::size_t threads_;
  SweepOptions options_;
};

}  // namespace thermo::sweep
