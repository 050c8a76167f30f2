// Reference for core::ThermalAwareScheduler::generate: Algorithm 1 with
// the session construction loop as first written, which scans all of the
// candidate order for every session with a fresh active mask and counts
// the unscheduled cores anew each round. The production loop keeps a
// compacted list of live candidates instead (docs/SCHEDULING.md "Live
// candidates"); it must produce the same ScheduleResult, bit for bit.
#pragma once

#include <cstddef>

#include "core/scheduler_result.hpp"
#include "core/soc_spec.hpp"
#include "core/thermal_scheduler.hpp"
#include "thermal/analyzer.hpp"

namespace thermo::core {

struct ReferenceSchedule {
  ScheduleResult result;
  double effective_temperature_limit = 0.0;
  /// STC evaluations of the full scans: every unscheduled core of every
  /// construction round.
  std::size_t full_scan_evaluations = 0;
  /// Those of them whose candidate was live: its solo term
  /// fl(fl(fl(TC·P)·W)·stc_scale) at its weight then was within STCL.
  std::size_t live_evaluations = 0;
};

/// Runs the reference Algorithm 1 on `soc` (solo_prepass, then the
/// SoloViolationPolicy, then the full-scan construction loop). Throws as
/// ThermalAwareScheduler::generate(soc, analyzer) does.
ReferenceSchedule reference_thermal_schedule(
    const SocSpec& soc, thermal::ThermalAnalyzer& analyzer,
    const ThermalSchedulerOptions& options);

}  // namespace thermo::core
