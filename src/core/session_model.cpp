#include "core/session_model.hpp"

#include <algorithm>
#include <cmath>

#include "thermal/rc_model.hpp"
#include "util/error.hpp"

namespace thermo::core {

namespace fp = thermo::floorplan;

void SessionModelOptions::validate() const {
  THERMO_REQUIRE(stc_scale > 0.0, "stc_scale must be positive");
}

SessionThermalModel::SessionThermalModel(const fp::Floorplan& floorplan,
                                         const thermal::PackageParams& package,
                                         SessionModelOptions options)
    : options_(options) {
  package.validate();
  options_.validate();
  THERMO_REQUIRE(!floorplan.empty(), "floorplan has no blocks");

  const std::size_t n = floorplan.size();
  lateral_.assign(n, {});
  boundary_conductance_.assign(n, 0.0);
  vertical_conductance_.assign(n, 0.0);

  // Lateral die conductances: the RC simulator's own formula, so the
  // guide model and the oracle agree on the die-level physics.
  for (const fp::Adjacency& adj : floorplan.adjacencies()) {
    const double conductance =
        thermal::lateral_conductance(floorplan, adj, package);
    lateral_[adj.a].push_back({adj.b, conductance});
    lateral_[adj.b].push_back({adj.a, conductance});
  }

  // Boundary paths: a silicon slab from the centroid to each exposed
  // chip edge, summed over the four sides. The chip boundary plays the
  // role of thermal ground in the session model (paper, Figure 3:
  // R_{2,N}, R_{4,W}, R_{4,S}, ...).
  for (std::size_t i = 0; i < n; ++i) {
    const fp::Block& block = floorplan.block(i);
    double conductance = 0.0;
    for (fp::Side side : fp::kAllSides) {
      const double exposure = floorplan.boundary_exposure(i, side);
      if (exposure <= 0.0) continue;
      const double distance = block.centroid_to_side(side);
      conductance += package.k_die * package.t_die * exposure / distance;
    }
    boundary_conductance_[i] = conductance;
  }

  // Vertical path (extension): the RC simulator's block ->
  // spreader-centre conductance (half-die + TIM + spreading).
  for (std::size_t i = 0; i < n; ++i) {
    vertical_conductance_[i] =
        thermal::vertical_conductance(floorplan.block(i).area(), package);
  }
}

double SessionThermalModel::equivalent_resistance(
    const std::vector<bool>& active, std::size_t core) const {
  THERMO_REQUIRE(active.size() == core_count(),
                 "active mask size must equal the core count");
  THERMO_REQUIRE(core < core_count(), "core index out of range");

  double conductance = boundary_conductance_[core];
  for (const LateralPath& path : lateral_[core]) {
    // Modification 2: paths to concurrently active cores are removed;
    // modification 3: passive neighbours are thermal ground.
    if (!active[path.other]) conductance += path.conductance;
  }
  if (options_.include_vertical_path) {
    conductance += vertical_conductance_[core];
  }
  if (conductance <= 0.0) return kInfiniteResistance;
  return 1.0 / conductance;
}

double SessionThermalModel::thermal_characteristic(
    const std::vector<bool>& active, std::size_t core, double power) const {
  THERMO_REQUIRE(std::isfinite(power) && power >= 0.0,
                 "power must be finite and non-negative");
  const double rth = equivalent_resistance(active, core);
  if (std::isinf(rth)) return power > 0.0 ? kInfiniteResistance : 0.0;
  return power * rth;
}

double SessionThermalModel::session_characteristic(
    const std::vector<bool>& active, const std::vector<double>& power,
    const std::vector<double>& weight) const {
  THERMO_REQUIRE(active.size() == core_count(),
                 "active mask size must equal the core count");
  THERMO_REQUIRE(power.size() == core_count(),
                 "power vector size must equal the core count");
  THERMO_REQUIRE(weight.size() == core_count(),
                 "weight vector size must equal the core count");

  double stc = 0.0;
  for (std::size_t i = 0; i < core_count(); ++i) {
    if (!active[i]) continue;
    const double tc = thermal_characteristic(active, i, power[i]);
    if (std::isinf(tc)) return kInfiniteResistance;
    stc = std::max(stc, tc * power[i] * weight[i]);
  }
  return stc * options_.stc_scale;
}

SessionThermalModel::IncrementalStc SessionThermalModel::characteristic_with(
    const std::vector<bool>& active, std::size_t core, double base,
    const std::vector<double>& power, const std::vector<double>& weight) const {
  THERMO_REQUIRE(active.size() == core_count(),
                 "active mask size must equal the core count");
  THERMO_REQUIRE(power.size() == core_count(),
                 "power vector size must equal the core count");
  THERMO_REQUIRE(weight.size() == core_count(),
                 "weight vector size must equal the core count");
  THERMO_REQUIRE(core < core_count() && active[core],
                 "core must be a member of the active mask");

  IncrementalStc stc{base, 0};
  // Folds core i's term into the max; false once the session is enclosed.
  const auto fold = [&](std::size_t i) {
    ++stc.terms;
    const double tc = thermal_characteristic(active, i, power[i]);
    if (std::isinf(tc)) {
      stc.unscaled = kInfiniteResistance;
      return false;
    }
    stc.unscaled = std::max(stc.unscaled, tc * power[i] * weight[i]);
    return true;
  };
  if (!fold(core)) return stc;
  for (const LateralPath& path : lateral_[core]) {
    if (active[path.other] && !fold(path.other)) break;
  }
  return stc;
}

double SessionThermalModel::lateral_resistance(std::size_t i,
                                               std::size_t j) const {
  THERMO_REQUIRE(i < core_count() && j < core_count(),
                 "core index out of range");
  for (const LateralPath& path : lateral_[i]) {
    if (path.other == j) return 1.0 / path.conductance;
  }
  return kInfiniteResistance;
}

double SessionThermalModel::boundary_resistance(std::size_t i) const {
  THERMO_REQUIRE(i < core_count(), "core index out of range");
  if (boundary_conductance_[i] <= 0.0) return kInfiniteResistance;
  return 1.0 / boundary_conductance_[i];
}

double SessionThermalModel::vertical_resistance(std::size_t i) const {
  THERMO_REQUIRE(i < core_count(), "core index out of range");
  return 1.0 / vertical_conductance_[i];
}

}  // namespace thermo::core
