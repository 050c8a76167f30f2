#include "core/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace thermo::core {

bool TestSession::contains(std::size_t core) const {
  return std::find(cores.begin(), cores.end(), core) != cores.end();
}

double TestSession::length(const SocSpec& soc) const {
  double longest = 0.0;
  for (std::size_t core : cores) {
    THERMO_REQUIRE(core < soc.core_count(), "session core index out of range");
    longest = std::max(longest, soc.tests[core].length);
  }
  return longest;
}

std::vector<double> TestSession::power_map(const SocSpec& soc) const {
  std::vector<double> power(soc.core_count(), 0.0);
  for (std::size_t core : cores) {
    THERMO_REQUIRE(core < soc.core_count(), "session core index out of range");
    power[core] = soc.tests[core].power;
  }
  return power;
}

std::string TestSession::to_string(const SocSpec& soc) const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < cores.size(); ++i) {
    if (i != 0) os << ", ";
    os << soc.flp.block(cores[i]).name;
  }
  os << '}';
  return os.str();
}

double TestSchedule::total_length(const SocSpec& soc) const {
  double total = 0.0;
  for (const TestSession& session : sessions) total += session.length(soc);
  return total;
}

bool TestSchedule::is_complete(const SocSpec& soc) const {
  std::vector<bool> seen(soc.core_count(), false);
  for (const TestSession& session : sessions) {
    for (std::size_t core : session.cores) {
      if (core >= soc.core_count() || seen[core]) return false;
      seen[core] = true;
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

void TestSchedule::require_well_formed(const SocSpec& soc) const {
  std::vector<bool> seen(soc.core_count(), false);
  for (const TestSession& session : sessions) {
    THERMO_ENSURE(!session.empty(), "schedule contains an empty session");
    for (std::size_t core : session.cores) {
      THERMO_ENSURE(core < soc.core_count(), "scheduled core out of range");
      THERMO_ENSURE(!seen[core], "core '" + soc.flp.block(core).name +
                                     "' scheduled more than once");
      seen[core] = true;
    }
  }
}

std::string TestSchedule::to_string(const SocSpec& soc) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    os << "TS" << i + 1 << " = " << sessions[i].to_string(soc);
    if (i + 1 != sessions.size()) os << '\n';
  }
  return os.str();
}

}  // namespace thermo::core
