// HotSpot .ptrace power-trace format: a header line of unit names
// followed by one line of power values [W] per time step. Interop with
// the tool the paper's authors used: lets externally produced traces
// drive our RC model (and vice versa) for cross-validation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "floorplan/floorplan.hpp"

namespace thermo::thermal {

struct PowerTrace {
  std::vector<std::string> unit_names;
  /// steps[t][u] = power of unit u at step t [W].
  std::vector<std::vector<double>> steps;

  std::size_t step_count() const { return steps.size(); }

  /// Reorders columns to match the floorplan's block order. Throws
  /// ParseError when a block has no column or the trace has extras.
  PowerTrace aligned_to(const floorplan::Floorplan& fp) const;
};

/// Parses a .ptrace stream; throws ParseError with line numbers.
PowerTrace parse_ptrace(std::istream& in);
PowerTrace parse_ptrace_string(const std::string& text);

/// Loads a .ptrace file; throws ParseError when unreadable.
PowerTrace load_ptrace(const std::string& path);

/// Formats .ptrace text (round-trips through parse_ptrace).
std::string to_ptrace_string(const PowerTrace& trace);

}  // namespace thermo::thermal
