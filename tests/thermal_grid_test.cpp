#include "thermal/grid_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracles/cholesky.hpp"
#include "oracles/sparse_ops.hpp"
#include "test_helpers.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

TEST(GridModel, CellAndNodeCounts) {
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{8, 8});
  EXPECT_EQ(grid.cell_count(), 64u);
  EXPECT_EQ(grid.node_count(), 74u);
  EXPECT_EQ(grid.rows(), 8u);
  EXPECT_EQ(grid.cols(), 8u);
}

TEST(GridModel, RejectsTinyGridsAndBadInputs) {
  EXPECT_THROW(
      GridThermalModel(quad_floorplan(), PackageParams{}, GridOptions{1, 8}),
      InvalidArgument);
  // The overlap fails the floorplan's constructor, so no grid is built.
  EXPECT_THROW(GridThermalModel(floorplan::Floorplan(
                                    "bad", {{"a", 2e-3, 2e-3, 0.0, 0.0},
                                            {"b", 2e-3, 2e-3, 1e-3, 1e-3}}),
                                PackageParams{}),
               InvalidArgument);
  EXPECT_THROW(GridThermalModel(floorplan::Floorplan(), PackageParams{}),
               InvalidArgument);
}

TEST(GridModel, CoverageIsCompleteForAlignedGrid) {
  // 2x2 blocks on an 8x8 grid: each block covers 16 cells fully.
  const floorplan::Floorplan fp = quad_floorplan();
  const GridThermalModel grid(fp, PackageParams{}, GridOptions{8, 8});
  double total = 0.0;
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      for (std::size_t b = 0; b < fp.size(); ++b) {
        total += grid.coverage(b, r, c);
      }
    }
  }
  EXPECT_NEAR(total, 64.0, 1e-9);  // every cell covered exactly once
  EXPECT_NEAR(grid.coverage(0, 0, 0), 1.0, 1e-12);  // block a, bottom-left
  EXPECT_NEAR(grid.coverage(0, 7, 7), 0.0, 1e-12);
}

TEST(GridModel, PartialCoverageForMisalignedBlocks) {
  const floorplan::Floorplan fp("mis", {{"a", 1.5e-3, 2e-3, 0.0, 0.0},
                                        {"b", 0.5e-3, 2e-3, 1.5e-3, 0.0}});
  const GridThermalModel grid(fp, PackageParams{}, GridOptions{2, 2});
  // Cell width 1 mm: block a covers cell (0,1) half.
  EXPECT_NEAR(grid.coverage(0, 0, 1), 0.5, 1e-9);
  EXPECT_NEAR(grid.coverage(1, 0, 1), 0.5, 1e-9);
}

TEST(GridModel, ZeroPowerGivesAmbient) {
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{8, 8});
  const GridSteadyResult r = grid.solve({0.0, 0.0, 0.0, 0.0});
  for (double t : r.cell_temperature) EXPECT_NEAR(t, 45.0, 1e-6);
}

TEST(GridModel, HeatedBlockIsHottestAndGradientExists) {
  const floorplan::Floorplan fp = quad_floorplan();
  const GridThermalModel grid(fp, PackageParams{}, GridOptions{16, 16});
  const GridSteadyResult r = grid.solve({10.0, 0.0, 0.0, 0.0});
  // Block a (bottom-left) is hottest.
  std::size_t hottest = 0;
  for (std::size_t b = 1; b < 4; ++b) {
    if (r.block_max_temperature[b] > r.block_max_temperature[hottest]) {
      hottest = b;
    }
  }
  EXPECT_EQ(hottest, 0u);
  // Intra-block gradient: max > mean within the heated block.
  EXPECT_GT(r.block_max_temperature[0], r.block_mean_temperature[0]);
}

TEST(GridModel, AgreesWithBlockModelWithinDiscretisationError) {
  // The two models share package physics; block temperatures should
  // agree to within a few kelvin on a uniform workload.
  const floorplan::Floorplan fp = nine_floorplan();
  const PackageParams pkg;
  const RCModel block_model(fp, pkg);
  const GridThermalModel grid(fp, pkg, GridOptions{24, 24});
  const std::vector<double> power(9, 3.0);
  const SteadyStateResult block_result =
      solve_steady_state(block_model, power);
  const GridSteadyResult grid_result = grid.solve(power);
  for (std::size_t b = 0; b < 9; ++b) {
    EXPECT_NEAR(grid_result.block_mean_temperature[b],
                block_result.temperature[b], 5.0)
        << fp.block(b).name;
  }
}

TEST(GridModel, RefinementConverges) {
  // Doubling the grid changes block means by much less than the coarse
  // discretisation error.
  const floorplan::Floorplan fp = quad_floorplan();
  const PackageParams pkg;
  const std::vector<double> power{8.0, 0.0, 0.0, 2.0};
  const GridSteadyResult coarse =
      GridThermalModel(fp, pkg, GridOptions{8, 8}).solve(power);
  const GridSteadyResult fine =
      GridThermalModel(fp, pkg, GridOptions{16, 16}).solve(power);
  const GridSteadyResult finer =
      GridThermalModel(fp, pkg, GridOptions{32, 32}).solve(power);
  for (std::size_t b = 0; b < 4; ++b) {
    const double d1 =
        std::fabs(fine.block_mean_temperature[b] -
                  coarse.block_mean_temperature[b]);
    const double d2 = std::fabs(finer.block_mean_temperature[b] -
                                fine.block_mean_temperature[b]);
    EXPECT_LE(d2, d1 + 0.1);
  }
}

TEST(GridModel, LinearInPower) {
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{8, 8});
  const GridSteadyResult once = grid.solve({5.0, 0.0, 0.0, 0.0});
  const GridSteadyResult twice = grid.solve({10.0, 0.0, 0.0, 0.0});
  for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) {
    EXPECT_NEAR(twice.cell_temperature[cell] - 45.0,
                2.0 * (once.cell_temperature[cell] - 45.0), 1e-5);
  }
}

TEST(GridModel, SolveValidatesPowerVector) {
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{4, 4});
  EXPECT_THROW(grid.solve({1.0}), InvalidArgument);
  EXPECT_THROW(grid.solve({1.0, -1.0, 0.0, 0.0}), InvalidArgument);
}

TEST(GridModel, BackendsAgreeAndSparseIsBitReproducible) {
  // The grid solve (cached sparse LDLᵗ factor) must agree with a dense
  // Cholesky oracle on the same conductance matrix to the documented
  // 1e-9 relative tolerance, and repeated solves must be bit-identical —
  // the property the serve 1-vs-N-thread determinism smokes rely on.
  const floorplan::Floorplan fp = quad_floorplan();
  const GridThermalModel grid(fp, PackageParams{}, GridOptions{12, 12});
  const std::vector<double> power = {6.0, 1.5, 0.0, 3.0};
  const GridSteadyResult sparse = grid.solve(power);

  // Oracle: the same cell power spreading, then a dense factorization.
  const double a_cell = fp.chip_width() * fp.chip_height() /
                        static_cast<double>(grid.cell_count());
  std::vector<double> node_power(grid.node_count(), 0.0);
  for (std::size_t b = 0; b < power.size(); ++b) {
    for (std::size_t r = 0; r < grid.rows(); ++r) {
      for (std::size_t c = 0; c < grid.cols(); ++c) {
        node_power[r * grid.cols() + c] += power[b] / fp.block(b).area() *
                                           grid.coverage(b, r, c) * a_cell;
      }
    }
  }
  const std::vector<double> rise =
      linalg::CholeskyFactor(linalg::to_dense(grid.conductance())).solve(node_power);
  const double ambient = PackageParams{}.ambient;
  for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) {
    const double a = ambient + rise[cell];
    const double b = sparse.cell_temperature[cell];
    EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::fabs(a))) << "cell=" << cell;
  }

  const GridSteadyResult again = grid.solve(power);
  for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) {
    EXPECT_DOUBLE_EQ(sparse.cell_temperature[cell],
                     again.cell_temperature[cell]);
  }
  for (std::size_t b = 0; b < power.size(); ++b) {
    EXPECT_DOUBLE_EQ(sparse.block_max_temperature[b],
                     again.block_max_temperature[b]);
    EXPECT_DOUBLE_EQ(sparse.block_mean_temperature[b],
                     again.block_mean_temperature[b]);
  }
}

TEST(GridModel, ConductancePatternIsSymmetric) {
  // The stamped CSR must be structurally AND numerically symmetric —
  // the precondition the fill-reducing ordering and the LDLᵗ factor
  // rely on (satellite check riding the sparse-first assembly).
  const GridThermalModel grid(nine_floorplan(), PackageParams{},
                              GridOptions{10, 10});
  EXPECT_TRUE(grid.conductance().is_symmetric(1e-9));
}

}  // namespace
}  // namespace thermo::thermal
