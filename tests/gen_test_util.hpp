// Small seeded `gen` streams for the serve-path tests. A high Zipf skew
// keeps almost every sweep on the smallest synthetic rungs, so a few
// dozen lines serve quickly while the default kind mix still covers
// alpha, fig1 and synthetic SoCs across sweep, ptrace and chained
// requests. Lines are distinct (dup_rate 0) and carry unique ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/generator.hpp"

namespace thermo::testing {

inline std::vector<std::string> small_gen_lines(std::size_t count,
                                                std::uint64_t seed) {
  gen::GenConfig config;
  config.seed = seed;
  config.count = count;
  config.zipf_skew = 3.0;
  return gen::generate_stream(config).lines;
}

}  // namespace thermo::testing
