// Ablation B: how good a guide is the session thermal model?
//
// Three questions:
//  1. *Fidelity*: does the core thermal characteristic TC = P * Rth
//     rank cores the way the full RC simulation ranks their solo
//     temperature rises? (Spearman rank correlation; the model only has
//     to order candidates, not predict kelvins.)
//  2. *Vertical-path extension*: the paper's model uses lateral paths
//     only. Adding the die->package vertical resistance in parallel
//     (include_vertical_path) changes Rth mostly for large cores - does
//     it help or hurt schedule generation?
//  3. *Speed*: the entire point of the model is avoiding simulations.
//     Compare the cost of one STC evaluation against one 1 s transient
//     session simulation (on stderr: wall times are not reproducible).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <numeric>
#include <vector>

#include "core/session_model.hpp"
#include "core/thermal_scheduler.hpp"
#include "soc/alpha.hpp"
#include "thermal/analyzer.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace thermo;

namespace {

std::vector<double> ranks(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> rank(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<double>(i);
  }
  return rank;
}

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  const double n = static_cast<double>(a.size());
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  }
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

}  // namespace

int main() {
  std::cout << "=== Ablation B: session thermal model fidelity ===\n\n";
  const core::SocSpec soc = soc::alpha_soc();
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  const std::size_t n = soc.core_count();

  // 1. TC vs simulated solo temperature rise.
  core::SessionModelOptions lateral_only;
  const core::SessionThermalModel model(soc.flp, soc.package, lateral_only);
  std::vector<double> tc(n), solo_rise(n);
  const std::vector<bool> none(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    tc[i] = model.thermal_characteristic(none, i, soc.tests[i].power);
    std::vector<double> power(n, 0.0);
    power[i] = soc.tests[i].power;
    const thermal::SessionSimulation sim = analyzer.simulate_session(power, 1.0);
    solo_rise[i] = sim.peak_temperature[i] - soc.package.ambient;
  }
  Table fidelity({"core", "TC = P*Rth [K]", "simulated solo rise [K]"});
  for (std::size_t i = 0; i < n; ++i) {
    fidelity.add_row({soc.flp.block(i).name, format_double(tc[i], 1),
                      format_double(solo_rise[i], 1)});
  }
  fidelity.print(std::cout);
  std::cout << "Spearman rank correlation (TC vs solo rise): "
            << format_double(spearman(tc, solo_rise), 3) << "\n\n";

  // 2. Lateral-only vs vertical-path-extended model as scheduler guide.
  Table guide({"model", "TL [C]", "STCL", "length [s]", "effort [s]",
               "discards"});
  for (bool vertical : {false, true}) {
    for (double tl : {145.0, 165.0}) {
      core::ThermalSchedulerOptions options;
      options.temperature_limit = tl;
      options.stc_limit = 50.0;
      options.model.include_vertical_path = vertical;
      options.model.stc_scale = soc::alpha_stc_scale();
      const core::ThermalAwareScheduler scheduler(options);
      const core::ScheduleResult result = scheduler.generate(soc, analyzer);
      guide.add_row({vertical ? "lateral+vertical" : "lateral-only (paper)",
                     format_double(tl, 0), "50",
                     format_double(result.schedule_length, 0),
                     format_double(result.simulation_effort, 0),
                     std::to_string(result.discarded_sessions)});
    }
  }
  guide.print(std::cout);

  // 3. Cost: STC evaluation vs transient session simulation.
  using clock = std::chrono::steady_clock;
  const std::vector<double> power = soc.test_powers();
  const std::vector<double> weight(n, 1.0);
  std::vector<bool> active(n, false);
  for (std::size_t i = 0; i < n; i += 2) active[i] = true;

  constexpr int kStcReps = 100000;
  const auto t0 = clock::now();
  double sink = 0.0;
  for (int rep = 0; rep < kStcReps; ++rep) {
    sink += model.session_characteristic(active, power, weight);
  }
  const auto t1 = clock::now();
  constexpr int kSimReps = 20;
  for (int rep = 0; rep < kSimReps; ++rep) {
    analyzer.simulate_session(power, 1.0);
  }
  const auto t2 = clock::now();

  const double stc_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / kStcReps;
  const double sim_us =
      std::chrono::duration<double, std::micro>(t2 - t1).count() / kSimReps;
  // Wall times vary run to run, so they go to stderr: stdout stays a
  // pure function of the code.
  std::cerr << "STC evaluation: " << format_double(stc_us, 2)
            << " us;  1 s transient session simulation: "
            << format_double(sim_us, 1) << " us;  ratio "
            << format_double(sim_us / stc_us, 0) << "x (checksum "
            << format_double(sink, 0) << ")\n";
  return 0;
}
