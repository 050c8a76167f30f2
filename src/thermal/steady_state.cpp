#include "thermal/steady_state.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

SteadyStateResult solve_steady_state(const RCModel& model,
                                     const std::vector<double>& block_power) {
  const std::vector<double> power = model.expand_power(block_power);

  SteadyStateResult result;
  // G is fixed per model, only the power vector changes across calls:
  // the model factors G once (RCModel::steady_factor). The rise becomes
  // the temperature in place.
  result.temperature = model.steady_factor().solve(power);
  static obs::Counter& solves =
      obs::MetricsRegistry::instance().counter("thermal.solves");
  solves.add();

  const double ambient = model.package().ambient;
  for (double& t : result.temperature) t = ambient + t;
  return result;
}

double max_block_temperature(const RCModel& model,
                             const SteadyStateResult& result) {
  THERMO_REQUIRE(result.temperature.size() == model.node_count(),
                 "result does not match the model");
  THERMO_REQUIRE(model.block_count() > 0, "model has no blocks");
  return *std::max_element(
      result.temperature.begin(),
      result.temperature.begin() + static_cast<std::ptrdiff_t>(model.block_count()));
}

}  // namespace thermo::thermal
