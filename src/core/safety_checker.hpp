// Post-hoc verification: simulate every session of a schedule with the
// full RC model and report thermal violations against a temperature
// limit. Used by tests (scheduler output must verify clean) and by the
// power-vs-thermal comparison benches. docs/SCHEDULING.md ("The safety
// net") places it in the overall flow.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/soc_spec.hpp"
#include "thermal/analyzer.hpp"

namespace thermo::core {

struct SafetyViolation {
  std::size_t session_index = 0;
  std::size_t core = 0;
  double peak_temperature = 0.0;  ///< [deg C]
};

struct SafetyReport {
  bool safe = true;
  /// Hottest core across all sessions, 0 for no sessions [deg C].
  double max_temperature = 0.0;
  std::vector<SafetyViolation> violations;

  std::string to_string(const SocSpec& soc) const;
};

class SafetyChecker {
 public:
  struct Options {
    /// When true, sessions run back to back: each starts from the
    /// previous session's final thermal state (after cooling_gap seconds
    /// of idle time) instead of from ambient. This stress-tests the
    /// paper's independent-session assumption.
    bool chained = false;
    double cooling_gap = 0.0;  ///< idle seconds between sessions [s]
  };

  explicit SafetyChecker(double temperature_limit);
  SafetyChecker(double temperature_limit, Options options);

  double temperature_limit() const { return temperature_limit_; }
  const Options& options() const { return options_; }

  /// Validates `soc`, simulates each session (from ambient, or chained
  /// per Options) and flags every *active* core whose peak reaches the
  /// limit.
  SafetyReport check(const SocSpec& soc, const TestSchedule& schedule,
                     thermal::ThermalAnalyzer& analyzer) const;

 private:
  double temperature_limit_;
  Options options_;
};

}  // namespace thermo::core
