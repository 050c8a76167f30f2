#include "core/soc_spec.hpp"

#include <cmath>

#include "util/error.hpp"

namespace thermo::core {

std::vector<double> SocSpec::test_powers() const {
  std::vector<double> out(tests.size());
  for (std::size_t i = 0; i < tests.size(); ++i) out[i] = tests[i].power;
  return out;
}

double SocSpec::power_density(std::size_t i) const {
  THERMO_REQUIRE(i < tests.size(), "core index out of range");
  return tests[i].power / flp.block(i).area();
}

void SocSpec::validate() const {
  if (flp.empty()) {
    // The default floorplan, the one without blocks: the text of the
    // Floorplan constructor's own empty check.
    throw InvalidArgument("invalid floorplan '" + flp.name() +
                          "':\n  - floorplan has no blocks");
  }
  package.validate();
  THERMO_REQUIRE(tests.size() == flp.size(),
                 "SocSpec '" + name + "': tests.size() (" +
                     std::to_string(tests.size()) +
                     ") must equal the block count (" +
                     std::to_string(flp.size()) + ")");
  for (std::size_t i = 0; i < tests.size(); ++i) {
    THERMO_REQUIRE(std::isfinite(tests[i].power) && tests[i].power >= 0.0,
                   "core '" + flp.block(i).name +
                       "': test power must be finite and non-negative");
    THERMO_REQUIRE(std::isfinite(tests[i].length) && tests[i].length > 0.0,
                   "core '" + flp.block(i).name +
                       "': test length must be finite and positive");
  }
}

}  // namespace thermo::core
