#include "core/power_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/error.hpp"

namespace thermo::core {

PowerConstrainedScheduler::PowerConstrainedScheduler(
    PowerSchedulerOptions options)
    : options_(options) {
  THERMO_REQUIRE(options_.power_limit > 0.0, "power limit must be positive");
}

ScheduleResult PowerConstrainedScheduler::generate(
    const SocSpec& soc, thermal::ThermalAnalyzer* analyzer) const {
  soc.validate();
  const std::size_t n = soc.core_count();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (options_.sort_by_power) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return soc.tests[a].power > soc.tests[b].power;
                     });
  }

  ScheduleResult result;
  if (analyzer != nullptr) analyzer->reset_effort();

  std::vector<bool> scheduled(n, false);
  std::size_t remaining = n;
  while (remaining > 0) {
    TestSession session;
    double session_power = 0.0;
    for (std::size_t candidate : order) {
      if (scheduled[candidate]) continue;
      const double p = soc.tests[candidate].power;
      if (session.empty() && p > options_.power_limit) {
        // Over-budget core: test it alone, flag the budget breach.
        std::ostringstream note;
        note << "core '" << soc.flp.block(candidate).name << "' (" << p
             << " W) exceeds the session power budget ("
             << options_.power_limit << " W); scheduled alone";
        result.notes.push_back(note.str());
        session.cores.push_back(candidate);
        session_power = p;
        break;
      }
      if (session_power + p <= options_.power_limit) {
        session.cores.push_back(candidate);
        session_power += p;
      }
    }
    THERMO_ENSURE(!session.empty(), "power scheduler made no progress");

    for (std::size_t core : session.cores) scheduled[core] = true;
    remaining -= session.size();

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
    result.max_temperature = max_outcome_temperature(result.outcomes);
  }
  return result;
}

}  // namespace thermo::core
