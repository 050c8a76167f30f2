#include "dispatch/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace thermo::dispatch {

namespace {

// Relative units, fitted to rank the skewed bench_serve_gates batch
// against measured per-request wall time.
/// Oracle validations per scheduled core (committed sessions plus the
/// discard/re-try churn of Algorithm 1's weighting loop).
constexpr double kValidationsPerCore = 2.0;
/// Session-model + bookkeeping cost per oracle call, in node units
/// (keeps tiny steady requests from rounding to zero).
constexpr double kPerCallOverhead = 50.0;
/// Fixed per-request floor (parse, SoC build, serialization).
constexpr double kPerRequest = 1000.0;

}  // namespace

double predicted_factor_nnz(std::size_t nodes) {
  const double n = static_cast<double>(std::max<std::size_t>(nodes, 1));
  return n * (4.0 + std::log2(n));
}

double CostModel::estimate(const CostFeatures& features) const {
  // A back-substitution touches every non-zero of the sparse factor.
  const double solve_ops = predicted_factor_nnz(features.nodes);
  const double solves_per_call =
      features.transient ? std::max(1.0, features.steps_per_call) : 1.0;
  const double calls =
      features.oracle_calls > 0.0
          ? features.oracle_calls
          : kValidationsPerCore *
                static_cast<double>(std::max<std::size_t>(features.cores, 1));
  const double points =
      static_cast<double>(std::max<std::size_t>(features.stcl_points, 1));
  return kPerRequest +
         points * calls * (solves_per_call * solve_ops + kPerCallOverhead);
}

}  // namespace thermo::dispatch
