#include "thermal/grid_model.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

namespace {
double overlap_1d(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}
}  // namespace

GridThermalModel::GridThermalModel(const floorplan::Floorplan& fp,
                                   const PackageParams& package,
                                   GridOptions options)
    : package_(package), options_(options) {
  package_.validate();
  fp.require_valid();
  THERMO_REQUIRE(options_.rows >= 2 && options_.cols >= 2,
                 "grid needs at least 2x2 cells");

  const double chip_w = fp.chip_width();
  const double chip_h = fp.chip_height();
  cell_w_ = chip_w / static_cast<double>(options_.cols);
  cell_h_ = chip_h / static_cast<double>(options_.rows);
  const double x0 = fp.min_x();
  const double y0 = fp.min_y();

  const std::size_t cells = cell_count();
  const std::size_t sp_c = cells;
  linalg::SparseMatrix::Builder builder(node_count(), node_count());

  // Lateral cell-to-cell conduction through shared faces.
  const double g_horizontal =
      package_.k_die * package_.t_die * cell_h_ / cell_w_;
  const double g_vertical =
      package_.k_die * package_.t_die * cell_w_ / cell_h_;
  for (std::size_t r = 0; r < options_.rows; ++r) {
    for (std::size_t c = 0; c < options_.cols; ++c) {
      if (c + 1 < options_.cols) {
        stamp_conductance(builder, cell_index(r, c), cell_index(r, c + 1),
                          g_horizontal);
      }
      if (r + 1 < options_.rows) {
        stamp_conductance(builder, cell_index(r, c), cell_index(r + 1, c),
                          g_vertical);
      }
    }
  }

  // Vertical path per cell: half-die + TIM. The constriction into the
  // spreader is a chip-level effect; at grid granularity the lateral
  // spreading is explicit, so only a chip-area spreading term is applied
  // (folded into the spreader -> sink resistances below).
  const double a_cell = cell_w_ * cell_h_;
  const double r_cell_vertical =
      package_.t_die / (2.0 * package_.k_die * a_cell) +
      package_.t_tim / (package_.k_tim * a_cell);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    stamp_conductance(builder, cell, sp_c, 1.0 / r_cell_vertical);
  }

  // The package network after the die cells, as in RCModel.
  stamp_package(builder, sp_c, package_);

  conductance_ = builder.build();
  THERMO_ENSURE(conductance_.is_symmetric(1e-9),
                "grid conductance matrix must be symmetric");

  // Block -> cell coverage by rectangle overlap.
  block_area_.resize(fp.size());
  coverage_.assign(fp.size(), {});
  for (std::size_t b = 0; b < fp.size(); ++b) {
    const floorplan::Block& block = fp.block(b);
    block_area_[b] = block.area();
    const auto row_lo = static_cast<std::size_t>(std::max(
        0.0, std::floor((block.bottom() - y0) / cell_h_)));
    const auto row_hi = std::min(
        options_.rows,
        static_cast<std::size_t>(std::ceil((block.top() - y0) / cell_h_)));
    const auto col_lo = static_cast<std::size_t>(std::max(
        0.0, std::floor((block.left() - x0) / cell_w_)));
    const auto col_hi = std::min(
        options_.cols,
        static_cast<std::size_t>(std::ceil((block.right() - x0) / cell_w_)));
    for (std::size_t r = row_lo; r < row_hi; ++r) {
      for (std::size_t c = col_lo; c < col_hi; ++c) {
        const double cx0 = x0 + static_cast<double>(c) * cell_w_;
        const double cy0 = y0 + static_cast<double>(r) * cell_h_;
        const double area =
            overlap_1d(block.left(), block.right(), cx0, cx0 + cell_w_) *
            overlap_1d(block.bottom(), block.top(), cy0, cy0 + cell_h_);
        if (area > 0.0) {
          coverage_[b].emplace_back(cell_index(r, c), area / a_cell);
        }
      }
    }
    THERMO_ENSURE(!coverage_[b].empty(),
                  "block '" + block.name + "' covers no grid cell");
  }
}

double GridThermalModel::coverage(std::size_t block, std::size_t row,
                                  std::size_t col) const {
  THERMO_REQUIRE(block < coverage_.size(), "block index out of range");
  THERMO_REQUIRE(row < options_.rows && col < options_.cols,
                 "cell index out of range");
  const std::size_t cell = cell_index(row, col);
  for (const auto& [covered_cell, fraction] : coverage_[block]) {
    if (covered_cell == cell) return fraction;
  }
  return 0.0;
}

GridSteadyResult GridThermalModel::solve(
    const std::vector<double>& block_power) const {
  THERMO_REQUIRE(block_power.size() == coverage_.size(),
                 "power vector size must equal the block count");
  const double a_cell = cell_w_ * cell_h_;

  std::vector<double> power(node_count(), 0.0);
  for (std::size_t b = 0; b < coverage_.size(); ++b) {
    THERMO_REQUIRE(std::isfinite(block_power[b]) && block_power[b] >= 0.0,
                   "block power must be finite and non-negative");
    const double density = block_power[b] / block_area_[b];
    for (const auto& [cell, fraction] : coverage_[b]) {
      power[cell] += density * fraction * a_cell;
    }
  }

  // A repeated solve on the same grid is one back-substitution through
  // the model's own factor, exactly like RCModel's steady path.
  const std::vector<double> rise = steady_factor().solve(power);
  static obs::Counter& solves =
      obs::MetricsRegistry::instance().counter("thermal.solves");
  solves.add();

  GridSteadyResult result;
  result.cell_temperature.resize(cell_count());
  for (std::size_t cell = 0; cell < cell_count(); ++cell) {
    result.cell_temperature[cell] = package_.ambient + rise[cell];
  }
  result.block_max_temperature.assign(coverage_.size(), package_.ambient);
  result.block_mean_temperature.assign(coverage_.size(), 0.0);
  for (std::size_t b = 0; b < coverage_.size(); ++b) {
    double weighted = 0.0;
    double total_fraction = 0.0;
    for (const auto& [cell, fraction] : coverage_[b]) {
      result.block_max_temperature[b] = std::max(
          result.block_max_temperature[b], result.cell_temperature[cell]);
      weighted += result.cell_temperature[cell] * fraction;
      total_fraction += fraction;
    }
    result.block_mean_temperature[b] = weighted / total_fraction;
  }
  return result;
}

}  // namespace thermo::thermal
