#include "core/prepared_model.hpp"

#include "thermal/solver_cache.hpp"

namespace thermo::core {

PreparedModel::PreparedModel(const SocSpec& soc)
    : rc_(std::make_shared<const thermal::RCModel>(soc.flp, soc.package)),
      session_(rc_->floorplan(), rc_->package()) {}

std::shared_ptr<const linalg::SparseCholeskyFactor>
PreparedModel::steady_factor(
    const thermal::ThermalAnalyzer::Options& options) const {
  if (options.transient) return nullptr;
  const std::lock_guard<std::mutex> lock(factor_mutex_);
  if (steady_ == nullptr) {
    steady_ = thermal::ThermalSolverCache::instance().sparse_cholesky(*rc_);
  }
  return steady_;
}

}  // namespace thermo::core
