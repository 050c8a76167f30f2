#include "oracles/sequential_scheduler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace thermo::core {

ScheduleResult SequentialScheduler::generate(
    const SocSpec& soc, thermal::ThermalAnalyzer* analyzer) const {
  soc.validate();
  ScheduleResult result;
  if (analyzer != nullptr) analyzer->reset_effort();

  for (std::size_t i = 0; i < soc.core_count(); ++i) {
    TestSession session;
    session.cores.push_back(i);

    SessionOutcome outcome;
    outcome.session = session;
    outcome.length = session.length(soc);
    if (analyzer != nullptr) {
      const thermal::SessionSimulation sim =
          analyzer->simulate_session(session.power_map(soc), outcome.length);
      outcome.max_temperature = sim.max_temperature;
    }
    result.outcomes.push_back(outcome);
    result.schedule.sessions.push_back(std::move(session));
  }

  result.schedule.require_well_formed(soc);
  result.schedule_length = result.schedule.total_length(soc);
  if (analyzer != nullptr) {
    result.simulation_effort = analyzer->simulation_effort();
    result.simulation_count = analyzer->simulation_count();
    for (const SessionOutcome& outcome : result.outcomes) {
      result.max_temperature =
          std::max(result.max_temperature, outcome.max_temperature);
    }
  }
  return result;
}

}  // namespace thermo::core
