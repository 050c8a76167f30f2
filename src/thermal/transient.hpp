// Transient thermal simulation:  C dT/dt = P - G (T - T_amb).
//
// This is the expensive full-RC simulation of Algorithm 1's validation
// step — what the paper drove HotSpot for, and what the cheap session
// thermal model exists to avoid calling more often than necessary.
// Every simulated second here is charged to "simulation effort".
//
// The system is stiff (die time constants are milliseconds, the heat
// sink's are tens of seconds), so the integrator is backward Euler with
// a factored system matrix. (C/dt + G) is factored as sparse LDLᵗ and
// cached per (model, dt) through ThermalSolverCache (solver_cache.hpp):
// the first simulated session pays the factorization, every later
// session on the same model and step size pays only back-substitution
// per step, linear in the factor's non-zeros. Whole steps are counted
// by index, and a final remainder step runs only when the duration is
// not within rounding of a whole number of steps; stepping allocates
// nothing and reports only the final state and the per-node peaks (to
// watch every step, chain one-step calls, each final state feeding the
// next initial one). docs/SOLVERS.md covers the cost model ("The factor
// cache").
#pragma once

#include <vector>

#include "thermal/rc_model.hpp"

namespace thermo::thermal {

struct TransientOptions {
  double dt = 1e-3;  ///< backward-Euler step size [s]
};

struct TransientResult {
  /// Absolute node temperatures at the end of the horizon [deg C].
  std::vector<double> final_temperature;
  /// Per-node maximum absolute temperature over the horizon [deg C]
  /// (includes the initial state).
  std::vector<double> peak_temperature;
  std::size_t steps = 0;
};

/// Simulates `duration` seconds with constant per-block power, starting
/// from `initial` absolute node temperatures (pass ambient_state() to
/// start cold).
TransientResult simulate_transient(const RCModel& model,
                                   const std::vector<double>& block_power,
                                   double duration,
                                   const std::vector<double>& initial,
                                   const TransientOptions& options = {});

/// All-nodes-at-ambient initial state for a model.
std::vector<double> ambient_state(const RCModel& model);

}  // namespace thermo::thermal
