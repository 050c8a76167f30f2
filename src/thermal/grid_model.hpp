// Grid-granularity thermal model (the HotSpot "grid model" counterpart
// to RCModel's "block model").
//
// The die is discretised into rows x cols uniform cells; block powers
// are spread over the cells they cover by area overlap. Cells couple
// laterally to their 4-neighbours and vertically into the same
// 10-node spreader/sink/convection package used by RCModel — one
// stamp_package (thermal/rc_model.hpp) stamps both — so the two models
// share package physics and differ only in die granularity.
//
// Purpose: a higher-fidelity steady-state oracle to quantify the
// discretisation error of the block model (bench_ablation_grid) and to
// expose intra-block temperature gradients that block granularity hides.
// Steady state only. Like RCModel, the model owns the symbolic analysis
// of G's pattern (in minimum-degree order) and its sparse LDLᵗ factor of
// G (SteadyFactorSlot), built on the first solve, so repeated solves on
// one grid pay a single factorization — 100k-node grids (317×317+)
// factor once and back-substitute per power map. The slot is a member,
// so a model is neither copied nor moved; programs build it in place.
#pragma once

#include <cstddef>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "linalg/sparse.hpp"
#include "thermal/package.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::thermal {

struct GridOptions {
  std::size_t rows = 32;
  std::size_t cols = 32;
};

struct GridSteadyResult {
  /// Absolute cell temperatures [deg C], row-major (rows x cols).
  std::vector<double> cell_temperature;
  /// Per-block maximum covered-cell temperature [deg C].
  std::vector<double> block_max_temperature;
  /// Per-block area-weighted mean temperature [deg C].
  std::vector<double> block_mean_temperature;
};

class GridThermalModel {
 public:
  /// Builds the grid over `fp`, which must have blocks; the model keeps
  /// only each block's area and cell coverage, not the floorplan.
  GridThermalModel(const floorplan::Floorplan& fp,
                   const PackageParams& package, GridOptions options = {});

  std::size_t rows() const { return options_.rows; }
  std::size_t cols() const { return options_.cols; }
  std::size_t cell_count() const { return options_.rows * options_.cols; }
  /// Total node count: cells + the package nodes.
  std::size_t node_count() const { return cell_count() + kPackageNodes; }

  const PackageParams& package() const { return package_; }

  /// Fraction of cell (r, c) covered by block b (0..1).
  double coverage(std::size_t block, std::size_t row, std::size_t col) const;

  /// Steady-state solve for per-block power [W] through steady_factor().
  GridSteadyResult solve(const std::vector<double>& block_power) const;

  /// The sparse conductance matrix (ambient eliminated onto diagonal).
  const linalg::SparseMatrix& conductance() const { return conductance_; }

  /// Sparse LDLᵗ factor of conductance(), built on the first call
  /// (thread-safe).
  const linalg::SparseCholeskyFactor& steady_factor() const {
    return steady_.get(conductance_);
  }

 private:
  std::size_t cell_index(std::size_t row, std::size_t col) const {
    return row * options_.cols + col;
  }

  PackageParams package_;
  GridOptions options_;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  linalg::SparseMatrix conductance_;
  /// Per-block area [m²], what solve() divides a block's power by.
  std::vector<double> block_area_;
  /// coverage_[b] lists (cell, fraction-of-cell-area) pairs.
  std::vector<std::vector<std::pair<std::size_t, double>>> coverage_;
  mutable SteadyFactorSlot steady_;
};

}  // namespace thermo::thermal
