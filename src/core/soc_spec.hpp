// System-under-test description: a floorplan whose blocks are testable
// cores, each with a test power and a test length, plus the thermal
// package. This is the input to every scheduler — the paper's "SoC with
// N cores" plus exactly the data its thermal model needs (core
// geometry/adjacency for Rth, per-core test power for TC and STC).
// Test power is the *average* power during test, typically several
// times functional power — the reason test scheduling needs thermal
// awareness at all.
#pragma once

#include <string>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "thermal/package.hpp"

namespace thermo::core {

/// Test properties of one core (indexed like the floorplan blocks).
struct CoreTest {
  double power = 0.0;   ///< average power dissipation during test [W]
  double length = 1.0;  ///< test application time [s]
};

struct SocSpec {
  std::string name;
  floorplan::Floorplan flp;  ///< immutable; copies share it
  thermal::PackageParams package;
  /// One entry per floorplan block.
  std::vector<CoreTest> tests;

  std::size_t core_count() const { return flp.size(); }

  /// Per-core test power as a vector [W].
  std::vector<double> test_powers() const;

  /// Power density of core i [W/m^2].
  double power_density(std::size_t i) const;

  /// Throws InvalidArgument unless the floorplan has blocks (a built
  /// floorplan is valid), tests.size() matches the block count, and
  /// every power/length is finite and positive (length) / non-negative
  /// (power). O(n), spent on the tests.
  void validate() const;
};

}  // namespace thermo::core
