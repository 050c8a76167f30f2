// PreparedModel: what Algorithm 1 and its RC oracle derive from one SoC
// geometry (floorplan + package), built once and then shared read-only.
//
// A served batch schedules the same few geometries thousands of times,
// at different power corners and STCL values. Everything that depends
// on the geometry alone is built here once:
//   * the RC network (thermal::RCModel), which keeps its own copy of
//     the package (not of the floorplan) and, after the first
//     steady-oracle solve, its factor of G (RCModel::steady_factor), so
//     a geometry that is only ever stepped never factors it;
//   * the paper's session model (SessionThermalModel).
// scenario::ScenarioRunner keeps one per geometry_key() (with the
// geometry's SoCs and grid models), and `thermosched sweep` builds one
// per run. Callers pass a PreparedSoc to sweep_stcl, the one STCL scan,
// and to ThermalAwareScheduler::generate with a handed pre-pass; both
// use the prepared session model instead of rebuilding it. A prepared run is
// bit-identical to the one-shot generate(soc, analyzer), which builds
// its own session model: the same checks that can fail run in the same
// order with the same text, and the arithmetic is the same.
//
// Thread safety: every const member is safe to call concurrently.
// Neither model keeps the floorplan: both read soc.flp during
// construction only (validating it first), so readers on several
// workers never touch it.
#pragma once

#include <memory>

#include "core/session_model.hpp"
#include "core/soc_spec.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::core {

class PreparedModel {
 public:
  /// Builds the RC network and the session model (SessionModelOptions{})
  /// of soc's floorplan and package, which the RCModel validates. Keeps
  /// no reference to soc; does not read soc.tests or soc.name.
  explicit PreparedModel(const SocSpec& soc);

  const std::shared_ptr<const thermal::RCModel>& rc_model() const {
    return rc_;
  }
  const SessionThermalModel& session_model() const { return session_; }

 private:
  std::shared_ptr<const thermal::RCModel> rc_;
  SessionThermalModel session_;
};

/// One run's SoC on a prepared geometry: `soc` has passed
/// SocSpec::validate() and has `model`'s floorplan and package.
struct PreparedSoc {
  const SocSpec& soc;
  const PreparedModel& model;
};

}  // namespace thermo::core
