// Test sessions and schedules. A session is a set of cores tested
// concurrently; a schedule is an ordered list of sessions that together
// test every core exactly once (session-based scheduling, no preemption,
// as in the paper and its power-constrained predecessors).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/soc_spec.hpp"

namespace thermo::core {

struct TestSession {
  /// Core (block) indices tested concurrently, in insertion order.
  std::vector<std::size_t> cores;

  bool contains(std::size_t core) const;
  bool empty() const { return cores.empty(); }
  std::size_t size() const { return cores.size(); }

  /// Session length = longest member test [s] (cores finishing early sit
  /// idle until the session ends, the classic session-based model).
  double length(const SocSpec& soc) const;

  /// Per-block power vector: test power for members, 0 elsewhere.
  std::vector<double> power_map(const SocSpec& soc) const;

  /// "{C2, C3, C4}" using block names.
  std::string to_string(const SocSpec& soc) const;
};

struct TestSchedule {
  std::vector<TestSession> sessions;

  std::size_t session_count() const { return sessions.size(); }

  /// Total test application time = sum of session lengths [s].
  double total_length(const SocSpec& soc) const;

  /// True when every core of the SoC appears in exactly one session.
  bool is_complete(const SocSpec& soc) const;

  /// Throws LogicError when a core is repeated or out of range.
  void require_well_formed(const SocSpec& soc) const;

  std::string to_string(const SocSpec& soc) const;
};

}  // namespace thermo::core
