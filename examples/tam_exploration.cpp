// Test-access-mechanism exploration: derive per-core test lengths and
// powers from scan structures (patterns x scan flops) at a given TAM
// width, then schedule thermally. Wider TAMs shorten every test but
// raise test power - so the thermally-safe schedule length is NOT
// monotone in TAM width. This example sweeps the width and prints the
// full trade-off, connecting the paper's scheduler to the classic
// test-access literature it builds on (Iyengar & Chakrabarty).
//
// Every TAM width shares the same floorplan and package, i.e. the same
// RC network — so the widths are fanned across threads
// (sweep::for_each_index) with one shared RCModel, and the expensive
// factorizations are computed once for the whole exploration (solver
// cache).
//
//   ./tam_exploration [--tl 150] [--stcl 300] [--max-width 64] [--threads 0]
#include <iostream>
#include <memory>

#include "core/thermal_scheduler.hpp"
#include "soc/alpha.hpp"
#include "sweep/for_each_index.hpp"
#include "testaccess/test_structure.hpp"
#include "thermal/analyzer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace thermo;

int main(int argc, char** argv) {
  double tl = 150.0;
  double stcl = 300.0;
  long long max_width = 64;
  long long threads = 0;
  CliParser cli("tam_exploration",
                "Sweep TAM width; schedule the derived test sets thermally");
  cli.add_double("tl", "Temperature limit [deg C]", &tl);
  cli.add_double("stcl", "Session thermal characteristic limit", &stcl);
  cli.add_int("max-width", "Largest TAM width to try (power-of-two sweep)",
              &max_width);
  cli.add_int("threads", "Worker threads, 0 = all cores", &threads);
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << cli.usage();
    return 1;
  }

  // Reuse the Alpha floorplan; scan structures sized roughly with the
  // unit areas (bigger units carry more scan flops and patterns).
  const core::SocSpec base = soc::alpha_soc();
  std::vector<testaccess::CoreTestStructure> structures;
  for (std::size_t i = 0; i < base.core_count(); ++i) {
    const double area_mm2 = base.flp.block(i).area() * 1e6;
    testaccess::CoreTestStructure s;
    s.scan_flops = static_cast<std::size_t>(200.0 * area_mm2);
    s.patterns = 150 + static_cast<std::size_t>(10.0 * area_mm2);
    // Watts per bit of scan bandwidth, scaled so totals land in the
    // regime the thermal model was calibrated for.
    s.power_per_bit = 0.35 + 0.05 * static_cast<double>(i % 3);
    structures.push_back(s);
  }
  const double clock_hz = 5e4;  // slow scan clock -> second-scale tests

  std::vector<long long> widths;
  for (long long width = 4; width <= max_width; width *= 2) {
    widths.push_back(width);
  }

  // All widths share the floorplan and package, hence the RC network.
  const auto model =
      std::make_shared<const thermal::RCModel>(base.flp, base.package);

  struct Row {
    long long width = 0;
    double longest = 0.0;
    double total = 0.0;
    double max_power = 0.0;
    std::size_t sessions = 0;
    double length = 0.0;
    double max_temperature = 0.0;
  };
  std::vector<Row> rows(widths.size());
  const auto schedule_width = [&](std::size_t i) {
    const core::SocSpec soc = testaccess::make_soc_from_structures(
        base.flp, structures, static_cast<std::size_t>(widths[i]), clock_hz,
        base.package);

    Row& row = rows[i];
    row.width = widths[i];
    for (const auto& test : soc.tests) {
      row.longest = std::max(row.longest, test.length);
      row.total += test.length;
      row.max_power = std::max(row.max_power, test.power);
    }

    thermal::ThermalAnalyzer analyzer(model);
    core::ThermalSchedulerOptions options;
    options.temperature_limit = tl;
    options.stc_limit = stcl;
    options.solo_policy = core::SoloViolationPolicy::kRaiseLimit;
    const core::ScheduleResult result =
        core::ThermalAwareScheduler(options).generate(soc, analyzer);
    row.sessions = result.schedule.session_count();
    row.length = result.schedule_length;
    row.max_temperature = result.max_temperature;
  };
  const std::size_t workers = sweep::for_each_index(
      threads > 0 ? static_cast<std::size_t>(threads) : 0, rows.size(),
      schedule_width);

  Table table({"TAM width", "longest test [s]", "total test time [s]",
               "hottest core power [W]", "sessions", "schedule length [s]",
               "max temp [C]"});
  for (const Row& row : rows) {
    table.add_row({std::to_string(row.width), format_double(row.longest, 2),
                   format_double(row.total, 2), format_double(row.max_power, 1),
                   std::to_string(row.sessions), format_double(row.length, 2),
                   format_double(row.max_temperature, 1)});
  }
  std::cout << "TL = " << tl << " C, STCL = " << stcl << " ("
            << workers << " threads)\n";
  table.print(std::cout);
  std::cout << "\nnote: beyond the thermal knee, widening the TAM stops "
               "helping - tests get\nshorter but hotter, and the scheduler "
               "must serialise them again.\n";
  return 0;
}
