// Shared fixtures and builders for the ThermoSched test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "core/soc_spec.hpp"
#include "floorplan/floorplan.hpp"
#include "obs/metrics.hpp"
#include "thermal/package.hpp"

namespace thermo::testing {

/// 2x2 grid of 1 mm blocks named a, b, c, d:
///   c d     (c,d on top row)
///   a b
inline floorplan::Floorplan quad_floorplan() {
  return floorplan::Floorplan("quad", {{"a", 1e-3, 1e-3, 0.0, 0.0},
                                       {"b", 1e-3, 1e-3, 1e-3, 0.0},
                                       {"c", 1e-3, 1e-3, 0.0, 1e-3},
                                       {"d", 1e-3, 1e-3, 1e-3, 1e-3}});
}

/// 3x3 grid of 2 mm blocks named b<r>_<c>; the centre block b1_1 has no
/// chip-boundary exposure.
// GCC 12's -Wrestrict misfires on `const char* + std::string` chains
// inlined from libstdc++'s basic_string (PR tree-optimization/105651):
// it reports a potential overlap of 2^63 bytes that cannot occur.
// Suppressed around this helper only; the code is correct as written.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
inline floorplan::Floorplan nine_floorplan() {
  std::vector<floorplan::Block> blocks;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      floorplan::Block block;
      block.name = "b" + std::to_string(r) + "_" + std::to_string(c);
      block.width = 2e-3;
      block.height = 2e-3;
      block.x = c * 2e-3;
      block.y = r * 2e-3;
      blocks.push_back(std::move(block));
    }
  }
  return floorplan::Floorplan("nine", std::move(blocks));
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// A small SocSpec over the 3x3 grid with uniform power/length.
inline core::SocSpec nine_soc(double power = 6.0, double length = 1.0) {
  core::SocSpec soc;
  soc.name = "nine-soc";
  soc.flp = nine_floorplan();
  soc.package = thermal::PackageParams{};
  soc.tests.assign(soc.flp.size(), core::CoreTest{power, length});
  return soc;
}

/// Factorizations so far in this process, of either kind (the models'
/// factors of G and the solver cache's steppers): the count of the
/// `thermal.factor_ns` histogram.
inline std::uint64_t factorizations() {
  return obs::MetricsRegistry::instance()
      .histogram("thermal.factor_ns")
      .count();
}

/// Sum of the block areas over the bounding-box area, summed in block
/// order (what `thermosched info` prints as coverage).
inline double coverage(const floorplan::Floorplan& fp) {
  double block_area = 0.0;
  for (const floorplan::Block& b : fp.blocks()) block_area += b.area();
  return block_area / fp.chip_area();
}

/// Index lookup that asserts the name exists.
inline std::size_t idx(const floorplan::Floorplan& fp, const char* name) {
  const auto i = fp.index_of(name);
  if (!i) throw std::runtime_error(std::string("no block ") + name);
  return *i;
}

}  // namespace thermo::testing
