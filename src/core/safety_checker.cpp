#include "core/safety_checker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace thermo::core {

SafetyChecker::SafetyChecker(double temperature_limit)
    : SafetyChecker(temperature_limit, Options{}) {}

SafetyChecker::SafetyChecker(double temperature_limit, Options options)
    : temperature_limit_(temperature_limit), options_(options) {
  THERMO_REQUIRE(std::isfinite(temperature_limit),
                 "temperature limit must be finite");
  THERMO_REQUIRE(options_.cooling_gap >= 0.0,
                 "cooling gap must be non-negative");
}

SafetyReport SafetyChecker::check(const SocSpec& soc,
                                  const TestSchedule& schedule,
                                  thermal::ThermalAnalyzer& analyzer) const {
  soc.validate();
  schedule.require_well_formed(soc);

  SafetyReport report;
  std::vector<double> state = thermal::ambient_state(analyzer.model());
  for (std::size_t s = 0; s < schedule.sessions.size(); ++s) {
    const TestSession& session = schedule.sessions[s];
    thermal::SessionSimulation sim;
    if (options_.chained) {
      auto chained = analyzer.simulate_session_from(
          session.power_map(soc), session.length(soc), state);
      sim = std::move(chained.session);
      state = analyzer.cool_down(chained.final_state, options_.cooling_gap);
    } else {
      sim = analyzer.simulate_session(session.power_map(soc),
                                      session.length(soc));
    }

    // A session has at least one core (require_well_formed), so its
    // maximum and the schedule's are taken over the peaks alone.
    double session_max = -std::numeric_limits<double>::infinity();
    for (std::size_t core : session.cores) {
      session_max = std::max(session_max, sim.peak_temperature[core]);
      if (sim.peak_temperature[core] >= temperature_limit_) {
        report.violations.push_back(
            SafetyViolation{s, core, sim.peak_temperature[core]});
      }
    }
    report.max_temperature =
        s == 0 ? session_max : std::max(report.max_temperature, session_max);
  }
  report.safe = report.violations.empty();
  return report;
}

std::string SafetyReport::to_string(const SocSpec& soc) const {
  std::ostringstream os;
  os << (safe ? "SAFE" : "UNSAFE") << ", max " << max_temperature << " C";
  for (const SafetyViolation& v : violations) {
    os << "\n  session " << v.session_index + 1 << ": core '"
       << soc.flp.block(v.core).name << "' peaks at " << v.peak_temperature
       << " C";
  }
  return os.str();
}

}  // namespace thermo::core
