#include "core/exact_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace thermo::core {

ExactScheduler::ExactScheduler(ExactSchedulerOptions options)
    : options_(options) {
  THERMO_REQUIRE(std::isfinite(options_.temperature_limit),
                 "temperature limit must be finite");
  THERMO_REQUIRE(options_.max_cores >= 1 && options_.max_cores <= 20,
                 "max_cores must lie in [1, 20]");
}

namespace {

TestSession session_of_mask(unsigned mask, std::size_t n) {
  TestSession session;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask & (1u << i)) session.cores.push_back(i);
  }
  return session;
}

}  // namespace

ScheduleResult ExactScheduler::generate(
    const SocSpec& soc, thermal::ThermalAnalyzer& analyzer) const {
  soc.validate();
  const std::size_t n = soc.core_count();
  THERMO_REQUIRE(n <= options_.max_cores,
                 "exact scheduler: " + std::to_string(n) +
                     " cores exceeds max_cores (" +
                     std::to_string(options_.max_cores) + ")");
  THERMO_REQUIRE(analyzer.model().block_count() == n,
                 "analyzer was built for a different floorplan");

  analyzer.reset_effort();
  const unsigned full = (1u << n) - 1u;

  // Memoised safety oracle: -1 unknown, 0 unsafe, 1 safe. A superset of
  // an unsafe set is unsafe, but we only exploit the cheap direction
  // (simulate on demand) - subsets are only queried when reachable in
  // the DP, which prunes most of the lattice for tight limits.
  std::vector<signed char> safe(full + 1u, -1);
  std::vector<double> subset_peak(full + 1u, 0.0);
  auto is_safe = [&](unsigned mask) {
    if (safe[mask] != -1) return safe[mask] == 1;
    const TestSession session = session_of_mask(mask, n);
    const thermal::SessionSimulation sim = analyzer.simulate_session(
        session.power_map(soc), session.length(soc));
    bool ok = true;
    for (std::size_t core : session.cores) {
      if (sim.peak_temperature[core] >= options_.temperature_limit) {
        ok = false;
        break;
      }
    }
    subset_peak[mask] = sim.max_temperature;
    safe[mask] = ok ? 1 : 0;
    return ok;
  };

  // Every core must be safe alone, or no schedule exists.
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_safe(1u << i)) {
      throw InvalidArgument("exact scheduler: core '" + soc.flp.block(i).name +
                            "' violates TL even alone; no safe schedule");
    }
  }

  // DP over subsets: sessions(mask) = minimal safe partition size.
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max() / 2;
  std::vector<std::size_t> best(full + 1u, kInf);
  std::vector<unsigned> choice(full + 1u, 0);
  best[0] = 0;
  for (unsigned mask = 1; mask <= full; ++mask) {
    // Fix the lowest set bit into the chosen session: this canonical
    // form enumerates each partition once.
    const unsigned lowest = mask & (0u - mask);
    const unsigned rest = mask ^ lowest;
    // Enumerate submasks of `rest`; session = lowest | sub.
    unsigned sub = rest;
    while (true) {
      const unsigned session_mask = lowest | sub;
      if (best[mask ^ session_mask] + 1 < best[mask] &&
          is_safe(session_mask)) {
        best[mask] = best[mask ^ session_mask] + 1;
        choice[mask] = session_mask;
      }
      if (sub == 0) break;
      sub = (sub - 1) & rest;
    }
  }
  THERMO_ENSURE(best[full] < kInf, "exact scheduler: DP found no partition");

  ScheduleResult result;
  unsigned mask = full;
  while (mask != 0) {
    const unsigned session_mask = choice[mask];
    TestSession session = session_of_mask(session_mask, n);
    SessionOutcome outcome;
    outcome.session = session;
    outcome.length = session.length(soc);
    outcome.max_temperature = subset_peak[session_mask];
    result.outcomes.push_back(outcome);
    result.schedule.sessions.push_back(std::move(session));
    mask ^= session_mask;
  }

  result.schedule.require_well_formed(soc);
  THERMO_ENSURE(result.schedule.is_complete(soc),
                "exact scheduler: incomplete partition");
  result.schedule_length = result.schedule.total_length(soc);
  result.simulation_effort = analyzer.simulation_effort();
  result.simulation_count = analyzer.simulation_count();
  result.max_temperature = max_outcome_temperature(result.outcomes);
  return result;
}

}  // namespace thermo::core
