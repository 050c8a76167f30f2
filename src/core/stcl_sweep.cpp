#include "core/stcl_sweep.hpp"

#include "sweep/for_each_index.hpp"
#include "thermal/analyzer.hpp"
#include "util/error.hpp"

namespace thermo::core {

std::vector<StclSweepPoint> sweep_stcl(const PreparedSoc& soc,
                                       const std::vector<double>& stcl_values,
                                       const StclSweepConfig& config) {
  if (stcl_values.empty()) return {};
  const auto options_at = [&](std::size_t i) {
    ThermalSchedulerOptions options = config.scheduler;
    options.stc_limit = stcl_values[i];
    return options;
  };

  // The solo pre-pass depends on neither STCL nor TL: run it once, after
  // the checks point 0's own generate() made first, so errors keep their
  // precedence.
  const std::shared_ptr<const thermal::RCModel>& model = soc.model.rc_model();
  thermal::ThermalAnalyzer prepass_analyzer(model, config.analyzer);
  (void)ThermalAwareScheduler(options_at(0));
  const SoloPrepass prepass = solo_prepass(soc.soc, prepass_analyzer);

  std::vector<StclSweepPoint> points(stcl_values.size());
  sweep::for_each_index(config.threads, points.size(), [&](std::size_t i) {
    thermal::ThermalAnalyzer analyzer(model, config.analyzer);
    const ThermalAwareScheduler scheduler(options_at(i));
    const ScheduleResult result = scheduler.generate(soc, analyzer, prepass);
    points[i] = StclSweepPoint{stcl_values[i],
                               result.schedule_length,
                               result.simulation_effort,
                               result.schedule.session_count(),
                               result.max_temperature,
                               result.discarded_sessions,
                               scheduler.effective_temperature_limit()};
  });
  return points;
}

std::vector<double> stcl_range(double min, double max, double step) {
  THERMO_REQUIRE(step > 0.0 && max >= min,
                 "STCL range requires step > 0 and max >= min");
  // Computed by index, not by accumulation: `v += step` can round to a
  // no-op when step is below min's ULP (an infinite loop), and repeated
  // addition drifts. The count is bounded up front.
  const double span = (max - min) / step;
  THERMO_REQUIRE(span < 1e6, "STCL range would exceed a million points");
  const auto count = static_cast<std::size_t>(span + 1e-9) + 1;
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(min + static_cast<double>(i) * step);
  }
  return values;
}

}  // namespace thermo::core
