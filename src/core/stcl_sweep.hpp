// Parallel STCL exploration: run Algorithm 1 once per STCL value,
// fanned across threads by sweep::for_each_index.
//
// The paper exposes STCL as the user knob trading schedule efficiency
// against simulation effort (Section 5); picking it means scanning a
// range. Every point in the scan schedules the SAME SoC on one
// core::PreparedModel, so all points share its RCModel — G's factor is
// computed once by the model and steppers once through the solver
// cache, then back-substituted by every worker — and its session model,
// plus one solo pre-pass (core::solo_prepass, paper lines 1-7), run
// once before the fan-out and handed to every point's generate(). Each
// point gets a private ThermalAnalyzer (the effort accounting is not
// thread-safe).
//
// Shared by `thermosched sweep` and the serve runner; results are
// index-ordered and identical for any thread count.
#pragma once

#include <vector>

#include "core/prepared_model.hpp"
#include "core/thermal_scheduler.hpp"
#include "thermal/analyzer.hpp"

namespace thermo::core {

struct StclSweepConfig {
  /// Scheduler knobs for every point; `scheduler.stc_limit` is
  /// overwritten by each swept value.
  ThermalSchedulerOptions scheduler;
  /// Oracle options for the per-point analyzers (dt, transient vs
  /// steady-state).
  thermal::ThermalAnalyzer::Options analyzer;
  /// Worker threads; 0 picks hardware concurrency, 1 runs inline —
  /// what scenario::ScenarioRunner uses from inside a serve worker.
  std::size_t threads = 0;
};

struct StclSweepPoint {
  double stcl = 0.0;
  double schedule_length = 0.0;
  double simulation_effort = 0.0;
  std::size_t sessions = 0;
  double max_temperature = 0.0;
  std::size_t discarded_sessions = 0;
  /// TL the run actually enforced — differs from the configured
  /// temperature_limit only under SoloViolationPolicy::kRaiseLimit.
  double effective_temperature_limit = 0.0;
};

/// Runs Algorithm 1 on a prepared geometry once per value in
/// `stcl_values` (result i corresponds to stcl_values[i]): the model's
/// RC network and session model serve every point, so the whole sweep
/// shares one set of factors. `config.scheduler.model` may differ from
/// the prepared session model's options only in stc_scale (see
/// ThermalAwareScheduler::generate). Throws what the scheduler throws
/// (first failure wins, once every other point has run).
std::vector<StclSweepPoint> sweep_stcl(const PreparedSoc& soc,
                                       const std::vector<double>& stcl_values,
                                       const StclSweepConfig& config);

/// The values min, min+step, … up to and including max (absolute 1e-9
/// endpoint tolerance; computed by index so the spacing never drifts).
/// Throws InvalidArgument unless step > 0, max >= min, and the range
/// holds fewer than a million points.
std::vector<double> stcl_range(double min, double max, double step);

}  // namespace thermo::core
