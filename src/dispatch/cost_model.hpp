// CostModel: estimate how expensive a scenario request is *before*
// running it, so execution_order's longest-job-first policy can place the
// whales first.
//
// Every request in this system lowers to the same shape of work: per
// STCL point, Algorithm 1 alternates cheap model-guided construction
// with oracle validations; each validation is either one steady-state
// back-substitution or `steps` backward-Euler back-substitutions; each
// back-substitution touches the nnz(L) entries of the sparse factor —
// the *post-ordering* fill, predicted from n (predicted_factor_nnz;
// docs/SOLVERS.md "Ordering"). The model
// simply multiplies those factors out:
//
//   cost ≈ stcl_points · validations(cores) · solves_per_validation
//          · nnz(L)   (+ fixed per-request overhead)
//
// The output is a RELATIVE unit, not seconds: LJF only needs correct
// *ordering*, so constants are calibrated to rank (a 1034-node request
// must score far above an Alpha request, which measures ~100× slower).
// bench_serve_gates
// validates the ranking against measured per-request wall time on every
// CI run. The constants are fixed, file-local to cost_model.cpp.
#pragma once

#include <cstddef>

namespace thermo::dispatch {

/// What the estimator needs to know about one request. Deliberately
/// plain numbers: the scenario layer maps a parsed
/// request onto this (scenario/cost.hpp); dispatch never sees JSON.
struct CostFeatures {
  std::size_t nodes = 0;       ///< thermal nodes of the (estimated) model
  std::size_t cores = 0;       ///< cores to schedule (drives validations)
  bool transient = true;       ///< transient oracle (false = steady)
  double steps_per_call = 0.0; ///< BE steps per oracle call (transient)
  std::size_t stcl_points = 1; ///< Algorithm 1 runs in the request
  /// Exact oracle-call count per point when the request shape makes it
  /// known up front (a power-trace replay performs exactly one call per
  /// trace step). 0 (default) keeps the Algorithm 1 estimate of
  /// validations_per_core * cores.
  double oracle_calls = 0.0;
};

/// Predicted nnz(L) of a fill-ordered sparse factor of an n-node
/// thermal model: ≈ n·(4 + log2 n). RC lattices keep ~4 off-diagonal
/// couplings per node, and min-degree ordering holds fill growth to
/// roughly a log factor on 2-D meshes (measured: a 64×64 grid factors
/// at ~15·n, a 317×317 at ~20·n).
/// Replaces the old flat c·n guess, which under-ranked 100k-node grid
/// requests against small transient sweeps.
double predicted_factor_nnz(std::size_t nodes);

class CostModel {
 public:
  CostModel() = default;

  /// Estimated relative cost; > 0, monotone in every feature.
  double estimate(const CostFeatures& features) const;
};

}  // namespace thermo::dispatch
