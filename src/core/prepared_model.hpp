// PreparedModel: what Algorithm 1 and its RC oracle derive from one SoC
// geometry (floorplan + package), built once and then shared read-only.
//
// A served batch schedules the same few geometries thousands of times,
// at different power corners and STCL values. Everything that depends
// on the geometry alone is built here once:
//   * the floorplan and package, validated once (the RC network keeps
//     its own validated copy);
//   * the RC network (thermal::RCModel);
//   * the paper's session model (SessionThermalModel);
//   * the sparse factor of G, on the first steady-oracle run only, so a
//     geometry that is only ever stepped never factors it.
// scenario::ScenarioRunner keeps one per geometry_key(). Requests then
// pass a PreparedSoc to solo_prepass, ThermalAwareScheduler::generate,
// sweep_stcl and SafetyChecker::check, which skip re-validating the SoC
// and rebuilding its session model. Each is bit-identical to its
// SocSpec overload: the same checks that can fail run in the same order
// with the same text, and the arithmetic is the same.
//
// Thread safety: every const member is safe to call concurrently. The
// floorplan's lazily computed geometry is filled during construction
// (validation computes it), so readers on several workers never write.
#pragma once

#include <memory>
#include <mutex>

#include "core/session_model.hpp"
#include "core/soc_spec.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::core {

class PreparedModel {
 public:
  /// Builds the RC network and the session model (SessionModelOptions{})
  /// of soc's floorplan and package, which the RCModel validates. Does
  /// not read soc.tests or soc.name.
  explicit PreparedModel(const SocSpec& soc);

  const std::shared_ptr<const thermal::RCModel>& rc_model() const {
    return rc_;
  }
  const SessionThermalModel& session_model() const { return session_; }

  /// G's factor when `options` select the steady oracle, else null: the
  /// third argument of a ThermalAnalyzer on rc_model(). Factored through
  /// ThermalSolverCache on the first such call, then held, so the cache
  /// is never asked for it again and its entry may age out.
  std::shared_ptr<const linalg::SparseCholeskyFactor> steady_factor(
      const thermal::ThermalAnalyzer::Options& options) const;

 private:
  std::shared_ptr<const thermal::RCModel> rc_;
  SessionThermalModel session_;
  mutable std::mutex factor_mutex_;
  mutable std::shared_ptr<const linalg::SparseCholeskyFactor> steady_;
};

/// One run's SoC on a prepared geometry: `soc` has passed
/// SocSpec::validate() and has `model`'s floorplan and package.
struct PreparedSoc {
  const SocSpec& soc;
  const PreparedModel& model;
};

}  // namespace thermo::core
