#include "oracles/reference_thermal_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/session_model.hpp"
#include "util/error.hpp"

namespace thermo::core {

namespace {

std::vector<std::size_t> reference_order(const SocSpec& soc,
                                         const SessionThermalModel& model,
                                         CoreOrder order) {
  const std::size_t n = soc.core_count();
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  if (order == CoreOrder::kInputOrder) return indices;
  std::vector<double> key(n, 0.0);
  const std::vector<bool> none(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    key[i] = order == CoreOrder::kDescendingPower
                 ? soc.tests[i].power
                 : model.thermal_characteristic(none, i, soc.tests[i].power);
  }
  const bool ascending = order == CoreOrder::kAscendingSoloTc;
  std::stable_sort(indices.begin(), indices.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ascending ? key[a] < key[b] : key[a] > key[b];
                   });
  return indices;
}

}  // namespace

ReferenceSchedule reference_thermal_schedule(
    const SocSpec& soc, thermal::ThermalAnalyzer& analyzer,
    const ThermalSchedulerOptions& options) {
  const SoloPrepass prepass = solo_prepass(soc, analyzer);
  const SessionThermalModel model(soc.flp, soc.package, options.model);
  const std::size_t n = soc.core_count();
  const std::vector<double> power = soc.test_powers();

  ReferenceSchedule out;
  ScheduleResult& result = out.result;
  analyzer.reset_effort();
  double tl = options.temperature_limit;
  for (std::size_t i = 0; i < n; ++i) {
    if (prepass.bcmt[i] < tl) continue;
    std::ostringstream note;
    note << "core '" << soc.flp.block(i).name << "' violates TL alone ("
         << prepass.bcmt[i] << " >= " << tl << " C)";
    switch (options.solo_policy) {
      case SoloViolationPolicy::kThrow:
        throw InvalidArgument(note.str());
      case SoloViolationPolicy::kRaiseLimit:
        tl = prepass.bcmt[i] + 1.0;
        note << "; raised TL to " << tl << " C";
        result.notes.push_back(note.str());
        break;
    }
  }
  out.effective_temperature_limit = tl;

  std::vector<double> weight(n, 1.0);
  std::vector<bool> scheduled(n, false);
  const std::vector<std::size_t> order =
      reference_order(soc, model, options.core_order);
  const std::vector<bool> none(n, false);
  std::size_t attempts = 0;
  while (std::count(scheduled.begin(), scheduled.end(), false) > 0) {
    TestSession session;
    std::vector<bool> active(n, false);
    double session_stc = 0.0;
    for (std::size_t candidate : order) {
      if (scheduled[candidate]) continue;
      const double solo =
          model.thermal_characteristic(none, candidate, power[candidate]) *
          power[candidate] * weight[candidate] * options.model.stc_scale;
      if (!(solo > options.stc_limit)) ++out.live_evaluations;
      ++out.full_scan_evaluations;
      active[candidate] = true;
      const SessionThermalModel::IncrementalStc stc =
          model.characteristic_with(active, candidate, session_stc, power,
                                    weight);
      if (stc.unscaled * options.model.stc_scale <= options.stc_limit) {
        session.cores.push_back(candidate);
        session_stc = stc.unscaled;
      } else {
        active[candidate] = false;
      }
    }
    if (session.empty()) {
      for (std::size_t candidate : order) {
        if (scheduled[candidate]) continue;
        session.cores.push_back(candidate);
        break;
      }
    }
    if (++attempts > options.max_attempts) {
      throw LogicError("reference scheduler: attempt cap exhausted");
    }
    const double length = session.length(soc);
    std::vector<double> session_power;
    for (std::size_t core : session.cores) session_power.push_back(power[core]);
    const thermal::SessionPeaks sim =
        analyzer.session_peaks(session.cores, session_power, length);
    bool valid = true;
    for (std::size_t t = 0; t < session.size(); ++t) {
      if (sim.core_peak[t] >= tl) {
        weight[session.cores[t]] *= options.weight_factor;
        valid = false;
      }
    }
    if (!valid) {
      ++result.discarded_sessions;
      if (session.size() == 1) {
        throw LogicError("reference scheduler: single-core session violates TL");
      }
      continue;
    }
    SessionOutcome outcome;
    outcome.session = session;
    outcome.length = length;
    outcome.max_temperature = sim.max_temperature;
    result.outcomes.push_back(outcome);
    for (std::size_t core : session.cores) scheduled[core] = true;
    result.schedule.sessions.push_back(std::move(session));
  }

  result.schedule_length = result.schedule.total_length(soc);
  result.simulation_effort = analyzer.simulation_effort();
  result.simulation_count = analyzer.simulation_count();
  for (const SessionOutcome& outcome : result.outcomes) {
    result.max_temperature =
        std::max(result.max_temperature, outcome.max_temperature);
  }
  analyzer.flush_counters();
  return out;
}

}  // namespace thermo::core
