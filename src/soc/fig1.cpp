#include "soc/fig1.hpp"

#include "util/error.hpp"

namespace thermo::soc {

namespace {
constexpr double kMm = 1e-3;

struct UnitSpec {
  const char* name;
  double x0, y0, x1, y1;  // mm
};

// 10 mm x 15 mm die, fully covered.
constexpr UnitSpec kUnits[] = {
    {"C1", 0.0, 0.0, 4.0, 15.0},    // 60 mm^2
    {"C2", 4.0, 12.0, 6.0, 15.0},   // 6 mm^2  (dense)
    {"C3", 6.0, 12.0, 8.0, 15.0},   // 6 mm^2  (dense)
    {"C4", 8.0, 12.0, 10.0, 15.0},  // 6 mm^2  (dense)
    {"C5", 4.0, 0.0, 10.0, 4.0},    // 24 mm^2
    {"C6", 4.0, 4.0, 10.0, 8.0},    // 24 mm^2
    {"C7", 4.0, 8.0, 10.0, 12.0},   // 24 mm^2
};

constexpr double kTestPowerWatts = 15.0;  // P(Ci) = 15 W, i = 1..7
}  // namespace

core::SocSpec fig1_soc() {
  core::SocSpec soc;
  soc.name = "fig1-hypothetical";
  std::vector<floorplan::Block> blocks;
  for (const UnitSpec& unit : kUnits) {
    floorplan::Block block;
    block.name = unit.name;
    block.x = unit.x0 * kMm;
    block.y = unit.y0 * kMm;
    block.width = (unit.x1 - unit.x0) * kMm;
    block.height = (unit.y1 - unit.y0) * kMm;
    blocks.push_back(std::move(block));
    soc.tests.push_back(core::CoreTest{kTestPowerWatts, 1.0});
  }
  soc.flp = floorplan::Floorplan(soc.name, std::move(blocks));
  soc.package = thermal::PackageParams{};
  soc.validate();
  return soc;
}

namespace {
core::TestSession session_of(const core::SocSpec& soc,
                             std::initializer_list<const char*> names) {
  core::TestSession session;
  for (const char* name : names) {
    const auto index = soc.flp.index_of(name);
    THERMO_ENSURE(index.has_value(), std::string("missing core ") + name);
    session.cores.push_back(*index);
  }
  return session;
}
}  // namespace

core::TestSession fig1_session_ts1(const core::SocSpec& soc) {
  return session_of(soc, {"C2", "C3", "C4"});
}

core::TestSession fig1_session_ts2(const core::SocSpec& soc) {
  return session_of(soc, {"C5", "C6", "C7"});
}

}  // namespace thermo::soc
