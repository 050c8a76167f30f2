// Steady-state thermal analysis: solve G * dT = P for the temperature
// rise over ambient, reported as absolute temperatures (ambient + dT).
//
// Steady state is the worst case for a test session that runs long
// enough (temperatures only rise towards it), and it is the regime the
// paper's session thermal model assumes (Section 2, modification 1:
// drop the capacitances). The scheduler's validation step uses this
// solve through ThermalAnalyzer; transient.hpp covers the time-resolved
// counterpart.
//
// G is fixed per RCModel, so the model factors it once as sparse LDLᵗ
// (RCModel::steady_factor, linalg/sparse_cholesky.hpp) and repeated
// solves on the same model cost only two triangular substitutions.
// docs/SOLVERS.md has the cost model.
#pragma once

#include <vector>

#include "thermal/rc_model.hpp"

namespace thermo::thermal {

struct SteadyStateResult {
  /// Absolute temperature per node [deg C], ambient included: the rise
  /// over ambient is temperature[i] - ambient.
  std::vector<double> temperature;
};

/// Solves the steady state for per-block power [W] (size = block count).
/// Counts one `thermal.solves` at the call. ThermalAnalyzer's steady
/// simulate_session is this solve. Throws NumericalError when the system
/// cannot be solved.
SteadyStateResult solve_steady_state(const RCModel& model,
                                     const std::vector<double>& block_power);

/// Maximum block temperature (die nodes only) of a steady-state result.
double max_block_temperature(const RCModel& model,
                             const SteadyStateResult& result);

}  // namespace thermo::thermal
