#include "core/thermal_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace thermo::core {

ThermalAwareScheduler::ThermalAwareScheduler(ThermalSchedulerOptions options)
    : options_(options) {
  THERMO_REQUIRE(std::isfinite(options_.temperature_limit),
                 "temperature limit must be finite");
  THERMO_REQUIRE(options_.stc_limit > 0.0, "STC limit must be positive");
  THERMO_REQUIRE(options_.weight_factor >= 1.0,
                 "weight factor must be >= 1 (weights only grow)");
  THERMO_REQUIRE(options_.max_attempts > 0, "attempt cap must be positive");
}

namespace {

/// kRaiseLimit lifts TL this far above the hottest solo peak [K].
constexpr double kRaiseLimitMargin = 1.0;

/// Candidate scan order for session construction; `solo_tc` is each
/// core's thermal characteristic with an otherwise-empty session.
std::vector<std::size_t> make_order(const SocSpec& soc,
                                    const std::vector<double>& solo_tc,
                                    CoreOrder order) {
  const std::size_t n = soc.core_count();
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  if (order == CoreOrder::kInputOrder) return indices;

  std::vector<double> key(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    key[i] = order == CoreOrder::kDescendingPower ? soc.tests[i].power
                                                  : solo_tc[i];
  }
  const bool ascending = order == CoreOrder::kAscendingSoloTc;
  std::stable_sort(indices.begin(), indices.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ascending ? key[a] < key[b] : key[a] > key[b];
                   });
  return indices;
}

/// Algorithm 1's economics, added to the obs registry once per run.
void record_counters(std::size_t stc_evaluations, std::size_t stc_terms,
                     std::size_t validations, std::size_t discarded) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  static obs::Counter& evaluations = registry.counter("core.stc_evaluations");
  static obs::Counter& terms = registry.counter("core.stc_terms");
  static obs::Counter& simulated = registry.counter("core.validations");
  static obs::Counter& dropped = registry.counter("core.discarded_sessions");
  evaluations.add(stc_evaluations);
  terms.add(stc_terms);
  simulated.add(validations);
  dropped.add(discarded);
}

}  // namespace

SoloPrepass solo_prepass(const SocSpec& soc,
                         thermal::ThermalAnalyzer& analyzer) {
  soc.validate();
  THERMO_REQUIRE(analyzer.model().block_count() == soc.core_count(),
                 "analyzer was built for a different floorplan");
  SoloPrepass prepass;
  prepass.bcmt.resize(soc.core_count());
  analyzer.reset_effort();
  for (std::size_t i = 0; i < soc.core_count(); ++i) {
    prepass.bcmt[i] = analyzer
                          .session_peaks({&i, 1}, {&soc.tests[i].power, 1},
                                         soc.tests[i].length)
                          .core_peak[0];
  }
  analyzer.reset_effort();
  analyzer.flush_counters();
  return prepass;
}

ScheduleResult ThermalAwareScheduler::generate(
    const SocSpec& soc, thermal::ThermalAnalyzer& analyzer) const {
  // solo_prepass validated soc and matched it to the analyzer.
  const SoloPrepass prepass = solo_prepass(soc, analyzer);
  const SessionThermalModel model(soc.flp, soc.package, options_.model);
  return schedule(soc, model, analyzer, prepass);
}

ScheduleResult ThermalAwareScheduler::generate(
    const PreparedSoc& soc, thermal::ThermalAnalyzer& analyzer,
    const SoloPrepass& prepass) const {
  THERMO_REQUIRE(analyzer.model().block_count() == soc.soc.core_count(),
                 "analyzer was built for a different floorplan");
  THERMO_REQUIRE(prepass.bcmt.size() == soc.soc.core_count(),
                 "pre-pass was run on a different SoC");
  // The one check of the session model's constructor that the prepared
  // model has not already passed for these options.
  options_.model.validate();
  const SessionThermalModel& model = soc.model.session_model();
  THERMO_REQUIRE(model.options().include_vertical_path ==
                     options_.model.include_vertical_path,
                 "prepared session model has other options");
  return schedule(soc.soc, model, analyzer, prepass);
}

ScheduleResult ThermalAwareScheduler::schedule(
    const SocSpec& soc, const SessionThermalModel& model,
    thermal::ThermalAnalyzer& analyzer, const SoloPrepass& prepass) const {
  const std::size_t n = soc.core_count();
  const std::vector<double> power = soc.test_powers();

  ScheduleResult result;
  analyzer.reset_effort();
  effective_tl_ = options_.temperature_limit;

  // ---- Pre-pass results (paper lines 1-7) and the solo policy ----
  for (std::size_t i = 0; i < n; ++i) {
    if (prepass.bcmt[i] < effective_tl_) continue;
    std::ostringstream note;
    note << "core '" << soc.flp.block(i).name << "' violates TL alone ("
         << prepass.bcmt[i] << " >= " << effective_tl_ << " C)";
    switch (options_.solo_policy) {
      case SoloViolationPolicy::kThrow:
        throw InvalidArgument(
            note.str() +
            "; fix the core's test infrastructure, raise TL, or use solo "
            "policy 'raise-limit'");
      case SoloViolationPolicy::kRaiseLimit:
        effective_tl_ = prepass.bcmt[i] + kRaiseLimitMargin;
        note << "; raised TL to " << effective_tl_ << " C";
        result.notes.push_back(note.str());
        break;
    }
  }

  // ---- Main loop (paper lines 8-28) ----
  std::vector<double> weight(n, 1.0);
  std::vector<bool> scheduled(n, false);
  std::size_t remaining = n;
  std::vector<double> solo_tc(n, 0.0);
  {
    const std::vector<bool> none(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      solo_tc[i] = model.thermal_characteristic(none, i, power[i]);
    }
  }
  const std::vector<std::size_t> order =
      make_order(soc, solo_tc, options_.core_order);

  // Live candidates (docs/SCHEDULING.md "Live candidates"): `order`'s
  // unscheduled cores that can still join a session. A core is hopeless
  // once its solo term, fl(fl(fl(TC·P)·W)·stc_scale) exactly as
  // characteristic_with and the accept test compute it, exceeds STCL: its
  // term in any session is at least its solo term (a subset of the same
  // fixed-order positive conductance sum never rounds higher) and W only
  // grows, so every scan would reject it. Scans skip hopeless and
  // scheduled cores and compact them out of `live` as they go.
  const auto hopeless = [&](std::size_t core) {
    return solo_tc[core] * power[core] * weight[core] *
               options_.model.stc_scale >
           options_.stc_limit;
  };
  std::vector<char> dropped(n, 0);
  std::vector<std::size_t> live;
  live.reserve(remaining);
  for (std::size_t core : order) {
    if (hopeless(core)) {
      dropped[core] = 1;
    } else {
      live.push_back(core);
    }
  }
  // No core before order[first_unscheduled] is unscheduled: the forced
  // session's cursor, monotone because cores are never unscheduled.
  std::size_t first_unscheduled = 0;

  std::vector<bool> active(n, false);  // the session's cores, reset per run
  std::vector<double> session_power;   // power[] on the session cores
  std::size_t attempts = 0;
  std::size_t stc_evaluations = 0;
  std::size_t stc_terms = 0;
  while (remaining > 0) {
    // Session construction (lines 9-15). `session_stc` is the unscaled STC
    // of the cores accepted so far; a candidate re-evaluates only itself
    // and its active neighbours, bit-identically to a full rescan.
    TestSession session;
    double session_stc = 0.0;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < live.size(); ++k) {
      const std::size_t candidate = live[k];
      if (scheduled[candidate] || dropped[candidate]) continue;
      live[kept++] = candidate;
      active[candidate] = true;
      const SessionThermalModel::IncrementalStc stc =
          model.characteristic_with(active, candidate, session_stc, power,
                                    weight);
      ++stc_evaluations;
      stc_terms += stc.terms;
      if (stc.unscaled * options_.model.stc_scale <= options_.stc_limit) {
        session.cores.push_back(candidate);
        session_stc = stc.unscaled;
      } else {
        active[candidate] = false;
      }
    }
    live.resize(kept);
    if (session.empty()) {
      // No core fits under STCL even alone: `live` is empty, since a live
      // candidate alone in a session is its solo term and fits. Degrade
      // gracefully to a sequential session with the first unscheduled
      // core of `order`: it passed the pre-pass, so it is safe.
      while (scheduled[order[first_unscheduled]]) ++first_unscheduled;
      session.cores.push_back(order[first_unscheduled]);
    }
    THERMO_ENSURE(!session.empty(), "session construction made no progress");

    // Validation (lines 16-23).
    if (++attempts > options_.max_attempts) {
      throw LogicError("thermal scheduler: attempt cap exhausted (" +
                       std::to_string(options_.max_attempts) + ")");
    }
    const double length = session.length(soc);
    session_power.clear();
    for (std::size_t core : session.cores) {
      session_power.push_back(power[core]);
      active[core] = false;
    }
    const thermal::SessionPeaks sim =
        analyzer.session_peaks(session.cores, session_power, length);

    bool valid = true;
    for (std::size_t t = 0; t < session.size(); ++t) {
      if (sim.core_peak[t] >= effective_tl_) {
        weight[session.cores[t]] *= options_.weight_factor;
        valid = false;
      }
    }

    if (!valid) {
      ++result.discarded_sessions;
      if (session.size() == 1) {
        // A solo session cannot run cooler than the pre-pass; if it still
        // violates, the configuration is unschedulable (can only happen
        // with kRaiseLimit margins smaller than the simulation noise).
        throw LogicError("single-core session violates TL after pre-pass: '" +
                         soc.flp.block(session.cores[0]).name + "'");
      }
      // Only this session's weights grew, so only its cores can have
      // become hopeless.
      for (std::size_t core : session.cores) {
        if (hopeless(core)) dropped[core] = 1;
      }
      continue;  // regenerate with the increased weights (line 9)
    }

    // Commit (lines 24-27).
    SessionOutcome outcome;
    outcome.session = session;
    outcome.length = length;
    outcome.max_temperature = sim.max_temperature;
    result.outcomes.push_back(outcome);
    result.schedule.sessions.push_back(std::move(session));
    for (std::size_t core : result.schedule.sessions.back().cores) {
      scheduled[core] = true;
      --remaining;
    }
  }

  result.schedule.require_well_formed(soc);
  result.schedule_length = result.schedule.total_length(soc);
  result.simulation_effort = analyzer.simulation_effort();
  result.simulation_count = analyzer.simulation_count();
  result.max_temperature = max_outcome_temperature(result.outcomes);
  record_counters(stc_evaluations, stc_terms, result.simulation_count,
                  result.discarded_sessions);
  analyzer.flush_counters();
  return result;
}

}  // namespace thermo::core
