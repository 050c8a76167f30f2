// Minimum-degree ordering on the thermal models the serve path factors:
// the block RC networks of synthetic SoCs (die blocks plus package
// nodes coupled to every block, which the ordering withholds as dense
// rows) and a fine-grid model. The production ordering must equal the
// std::set reference permutation on each, since the permutation fixes
// the factor's bits and so every record built on it. A model computes
// its ordering once and every factor of its pattern, G's and each
// stepper's (C/dt + G), uses it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/ordering.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "obs/metrics.hpp"
#include "oracles/min_degree_reference.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/solver_cache.hpp"
#include "util/rng.hpp"

namespace thermo {
namespace {

TEST(ThermalOrderingOracle, SyntheticRcModelsMatchSetReference) {
  for (const std::size_t cores : {8u, 246u, 1000u, 2000u, 4000u}) {
    Rng rng(103332388892ULL + cores);
    soc::SyntheticOptions options;
    options.core_count = cores;
    const core::SocSpec soc = soc::make_synthetic_soc(rng, options);
    const thermal::RCModel model(soc.flp, soc.package);
    const linalg::SparseMatrix& g = model.conductance_sparse();
    EXPECT_EQ(linalg::min_degree_ordering(g),
              testing::reference_min_degree_ordering(g))
        << cores << " cores";
  }
}

TEST(ThermalOrderingOracle, GridModelMatchesSetReference) {
  const core::SocSpec soc = soc::fig1_soc();
  const thermal::GridThermalModel model(soc.flp, soc.package, {64, 64});
  const linalg::SparseMatrix& g = model.conductance();
  EXPECT_EQ(linalg::min_degree_ordering(g),
            testing::reference_min_degree_ordering(g));
}

core::SocSpec synthetic_soc(std::size_t cores) {
  Rng rng(103332388892ULL + cores);
  soc::SyntheticOptions options;
  options.core_count = cores;
  return soc::make_synthetic_soc(rng, options);
}

/// (C/dt + G) as SparseImplicitStepper assembles it: G's entries, then
/// C/dt stamped on the diagonal.
linalg::SparseMatrix stepper_matrix(const thermal::RCModel& model, double dt) {
  const linalg::SparseMatrix& g = model.conductance_sparse();
  linalg::SparseMatrix::Builder builder(g.rows(), g.cols());
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t q = g.row_offsets()[r]; q < g.row_offsets()[r + 1]; ++q) {
      builder.add(r, g.col_indices()[q], g.values()[q]);
    }
  }
  for (std::size_t i = 0; i < g.rows(); ++i) {
    builder.add(i, i, model.capacitance()[i] / dt);
  }
  return builder.build();
}

// C is diagonal and G's diagonal is structurally full, so (C/dt + G) has
// G's pattern and its ordering is G's: one ordering per model serves G's
// factor and every stepper's.
TEST(ThermalOrdering, StepperMatrixOrdersLikeG) {
  for (const std::size_t cores : {8u, 246u, 1000u}) {
    const core::SocSpec soc = synthetic_soc(cores);
    const thermal::RCModel model(soc.flp, soc.package);
    const std::vector<std::size_t> g_order =
        linalg::min_degree_ordering(model.conductance_sparse());
    for (const double dt : {0.01, 1e-3}) {
      EXPECT_EQ(linalg::min_degree_ordering(stepper_matrix(model, dt)),
                g_order)
          << cores << " cores, dt " << dt;
    }
  }
}

std::uint64_t orderings_recorded() {
  return obs::MetricsRegistry::instance()
      .histogram("thermal.ordering_ns")
      .count();
}

// A model computes its ordering once, on first use, whichever factor
// asks first; its copies, G's factor and the steppers of every dt share
// it, and each of those factors gives the bits of one that orders
// itself.
TEST(ThermalOrdering, OneOrderingPerModelServesEveryFactor) {
  const core::SocSpec soc = synthetic_soc(246);
  const thermal::RCModel model(soc.flp, soc.package);
  const std::uint64_t before = orderings_recorded();
  thermal::ThermalSolverCache cache;
  const auto stepper = cache.sparse_stepper(model, 0.01);
  EXPECT_EQ(orderings_recorded(), before + 1);
  const thermal::RCModel copy = model;
  const auto other = cache.sparse_stepper(copy, 1e-3);
  const linalg::SparseCholeskyFactor& steady = copy.steady_factor();
  EXPECT_EQ(orderings_recorded(), before + 1);

  const std::vector<std::size_t>& order = model.ordering();
  EXPECT_EQ(&order, &copy.ordering());
  EXPECT_EQ(order, linalg::min_degree_ordering(model.conductance_sparse()));
  EXPECT_EQ(stepper->factor().permutation(), order);
  EXPECT_EQ(other->factor().permutation(), order);
  EXPECT_EQ(steady.permutation(), order);

  std::vector<double> rhs(model.node_count(), 0.0);
  for (std::size_t i = 0; i < model.block_count(); ++i) {
    rhs[i] = 1.0 + static_cast<double>(i % 7);
  }
  const linalg::SparseCholeskyFactor self_ordered(model.conductance_sparse());
  EXPECT_EQ(steady.solve(rhs), self_ordered.solve(rhs));
  const linalg::SparseImplicitStepper self_stepper(model.conductance_sparse(),
                                                   model.capacitance(), 0.01);
  const std::vector<double> from(model.node_count(), 0.5);
  EXPECT_EQ(stepper->step(from, rhs), self_stepper.step(from, rhs));
}

// Below kOrderingAutoMinNodes a model orders nothing: its factors run in
// natural order, as Ordering::kAuto resolves.
TEST(ThermalOrdering, SmallModelsFactorInNaturalOrder) {
  const core::SocSpec soc = synthetic_soc(8);
  const thermal::RCModel model(soc.flp, soc.package);
  ASSERT_LT(model.node_count(), linalg::kOrderingAutoMinNodes);
  const std::uint64_t before = orderings_recorded();
  EXPECT_TRUE(model.ordering().empty());
  EXPECT_EQ(model.steady_factor().ordering(), linalg::Ordering::kNatural);
  thermal::ThermalSolverCache cache;
  EXPECT_TRUE(cache.sparse_stepper(model, 0.01)->factor().permutation().empty());
  EXPECT_EQ(orderings_recorded(), before);
}

}  // namespace
}  // namespace thermo
