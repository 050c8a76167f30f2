// Common result type returned by all schedulers, carrying the paper's
// two quality metrics side by side: *schedule length* (sum of session
// lengths — test application time) and *simulation effort* (total
// simulated seconds spent in the RC oracle, including discarded
// sessions — the cost Algorithm 1 is designed to minimise).
// docs/SCHEDULING.md ("Reading the result") interprets every field.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/schedule.hpp"

namespace thermo::core {

/// Outcome of one committed session as observed by the oracle simulator.
struct SessionOutcome {
  TestSession session;
  double length = 0.0;           ///< [s]
  double max_temperature = 0.0;  ///< hottest core peak during session [deg C]
};

struct ScheduleResult {
  TestSchedule schedule;

  /// Per-committed-session simulation outcomes (same order as schedule).
  std::vector<SessionOutcome> outcomes;

  /// Total test application time [s].
  double schedule_length = 0.0;

  /// The paper's "simulation effort": cumulative simulated test-session
  /// time until the thermal-safe schedule was found, *including*
  /// discarded attempts [s]. The per-core pre-pass is not counted,
  /// matching the paper's accounting.
  double simulation_effort = 0.0;

  /// Hottest core temperature across all committed sessions, 0 when
  /// there are none [deg C] (max_outcome_temperature).
  double max_temperature = 0.0;

  /// Number of sessions that were simulated and discarded for violating
  /// the temperature limit.
  std::size_t discarded_sessions = 0;

  /// Total simulate() calls (committed + discarded).
  std::size_t simulation_count = 0;

  /// Human-readable notes (e.g. solo-violating cores and how they were
  /// handled).
  std::vector<std::string> notes;
};

/// The largest max_temperature of `outcomes`, or 0 when there are none
/// [deg C]. The maximum is taken over the outcomes alone, not from 0, so
/// a schedule that stays below 0 deg C (a sub-zero ambient) reports its
/// hottest session.
inline double max_outcome_temperature(
    const std::vector<SessionOutcome>& outcomes) {
  if (outcomes.empty()) return 0.0;
  return std::max_element(outcomes.begin(), outcomes.end(),
                          [](const SessionOutcome& a, const SessionOutcome& b) {
                            return a.max_temperature < b.max_temperature;
                          })
      ->max_temperature;
}

}  // namespace thermo::core
