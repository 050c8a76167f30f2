// Ablation D: block-granularity oracle vs grid-granularity oracle.
//
// The paper validates sessions with HotSpot's block model (as RCModel
// does). A finer grid model exposes intra-block gradients the block
// model averages away. This bench quantifies, on the Alpha-15 SoC:
//  * per-block steady-state temperature differences between the models
//    under a representative hot session;
//  * whether the block oracle's *ranking* of sessions survives at grid
//    granularity (it must, for Algorithm 1's accept/reject decisions to
//    be meaningful).
#include <algorithm>
#include <iostream>

#include "core/schedule.hpp"
#include "soc/alpha.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/steady_state.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace thermo;

int main() {
  std::cout << "=== Ablation D: block model vs grid model ===\n\n";
  const core::SocSpec soc = soc::alpha_soc();
  const thermal::RCModel block_model(soc.flp, soc.package);
  const thermal::GridThermalModel grid(soc.flp, soc.package,
                                       thermal::GridOptions{64, 64});

  // Representative hot session: the CPU cluster's three hottest units.
  core::TestSession session;
  for (const char* name : {"Icache", "Dcache", "IntReg"}) {
    session.cores.push_back(*soc.flp.index_of(name));
  }
  const std::vector<double> power = session.power_map(soc);

  const thermal::SteadyStateResult block_result =
      thermal::solve_steady_state(block_model, power);
  const thermal::GridSteadyResult grid_result = grid.solve(power);

  Table table({"core", "block model [C]", "grid mean [C]", "grid max [C]",
               "max - block [K]"});
  for (std::size_t core : session.cores) {
    table.add_row(
        {soc.flp.block(core).name,
         format_double(block_result.temperature[core], 2),
         format_double(grid_result.block_mean_temperature[core], 2),
         format_double(grid_result.block_max_temperature[core], 2),
         format_double(grid_result.block_max_temperature[core] -
                           block_result.temperature[core],
                       2)});
  }
  table.print(std::cout);

  // Session ranking fidelity: order 6 candidate sessions by both oracles.
  const char* candidates[][3] = {
      {"Icache", "Dcache", "IntReg"}, {"L2_0", "L2_1", "Router"},
      {"Bpred", "IntMap", "FPAdd"},   {"MC0", "MC1", "IO"},
      {"LSQ", "IntExe", "FPMul"},     {"Icache", "L2_0", "MC0"},
  };
  std::vector<double> block_peak, grid_peak;
  for (const auto& names : candidates) {
    core::TestSession candidate;
    for (const char* name : names) {
      candidate.cores.push_back(*soc.flp.index_of(name));
    }
    const auto bp = thermal::solve_steady_state(block_model,
                                                candidate.power_map(soc));
    const auto gp = grid.solve(candidate.power_map(soc));
    block_peak.push_back(thermal::max_block_temperature(block_model, bp));
    grid_peak.push_back(*std::max_element(gp.block_max_temperature.begin(),
                                          gp.block_max_temperature.end()));
  }
  std::cout << "\nsession ranking (hotter first):\n";
  Table rank({"session", "block peak [C]", "grid peak [C]"});
  for (std::size_t i = 0; i < block_peak.size(); ++i) {
    rank.add_row({std::string(candidates[i][0]) + "+" + candidates[i][1] +
                      "+" + candidates[i][2],
                  format_double(block_peak[i], 1),
                  format_double(grid_peak[i], 1)});
  }
  rank.print(std::cout);

  // Rank agreement (pairwise concordance).
  std::size_t concordant = 0, pairs = 0;
  for (std::size_t i = 0; i < block_peak.size(); ++i) {
    for (std::size_t j = i + 1; j < block_peak.size(); ++j) {
      ++pairs;
      if ((block_peak[i] < block_peak[j]) == (grid_peak[i] < grid_peak[j])) {
        ++concordant;
      }
    }
  }
  std::cout << "pairwise rank agreement: " << concordant << "/" << pairs
            << "\n";

  return 0;
}
