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
//
// From ambient at constant power the step is linear in the power, so a
// session's rise is the power-weighted sum of its cores' unit-step
// responses (unit_step_response, the same step schedule with 1 W on one
// block). ThermalAnalyzer::session_peaks answers the transient oracle
// that way from each model's StepResponseTable (rc_model.hpp;
// docs/SOLVERS.md "Transient response table").
#pragma once

#include <cstddef>
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

/// The rise over ambient [K] of every block after `duration` seconds
/// with 1 W in block `block` and nothing elsewhere, starting at ambient:
/// simulate_transient's step schedule (the same whole steps and
/// remainder step, the same steppers, counted in `thermal.steps`) run on
/// the rise vector itself. Requires block < block_count(), a positive
/// finite duration and dt > 0 (InvalidArgument otherwise).
std::vector<double> unit_step_response(const RCModel& model,
                                       std::size_t block, double duration,
                                       const TransientOptions& options = {});

/// All-nodes-at-ambient initial state for a model.
std::vector<double> ambient_state(const RCModel& model);

}  // namespace thermo::thermal
