#include "soc/synthetic.hpp"

#include <cmath>

#include "floorplan/generator.hpp"
#include "util/error.hpp"

namespace thermo::soc {

core::SocSpec make_synthetic_soc(Rng& rng, const SyntheticOptions& options) {
  THERMO_REQUIRE(options.core_count >= 1, "need at least one core");
  THERMO_REQUIRE(options.power_density_min > 0.0 &&
                     options.power_density_max >= options.power_density_min,
                 "power density range must be positive and ordered");
  THERMO_REQUIRE(options.test_length_min > 0.0 &&
                     options.test_length_max >= options.test_length_min,
                 "test length range must be positive and ordered");

  floorplan::SlicingOptions slicing;
  slicing.block_count = options.core_count;
  slicing.chip_width = options.chip_width;
  slicing.chip_height = options.chip_height;

  core::SocSpec soc;
  soc.flp = floorplan::make_slicing_floorplan(rng, slicing);
  soc.name = soc.flp.name();
  soc.package = thermal::PackageParams{};

  for (std::size_t i = 0; i < soc.flp.size(); ++i) {
    // Log-uniform density: small hot blocks and large cool blocks are
    // both common, mirroring real SoCs.
    const double log_min = std::log(options.power_density_min);
    const double log_max = std::log(options.power_density_max);
    const double density = std::exp(rng.uniform(log_min, log_max));
    core::CoreTest test;
    test.power = density * soc.flp.block(i).area();
    test.length = rng.uniform(options.test_length_min, options.test_length_max);
    soc.tests.push_back(test);
  }
  soc.validate();
  return soc;
}

}  // namespace thermo::soc
