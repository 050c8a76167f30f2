// Minimum-degree ordering on the thermal models the serve path factors:
// the block RC networks of synthetic SoCs (die blocks plus package
// nodes coupled to every block, which the ordering withholds as dense
// rows) and a fine-grid model. The production ordering must equal the
// std::set reference permutation on each, since the permutation fixes
// the factor's bits and so every record built on it. A model analyzes
// its pattern once, ordering included, and every factor of its pattern,
// G's and each stepper's (C/dt + G), shares that analysis.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/ordering.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "obs/metrics.hpp"
#include "oracles/min_degree_reference.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "thermal/analyzer.hpp"
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

/// (C/dt + G) assembled through a builder: G's entries, then C/dt
/// stamped on the diagonal.
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
// G's pattern and its ordering is G's: one analysis per model serves G's
// factor and every stepper's.
TEST(ThermalOrdering, StepperMatrixOrdersLikeG) {
  for (const std::size_t cores : {8u, 246u, 1000u}) {
    const core::SocSpec soc = synthetic_soc(cores);
    const thermal::RCModel model(soc.flp, soc.package);
    const std::vector<std::size_t> g_order =
        linalg::min_degree_ordering(model.conductance_sparse());
    for (const double dt : {0.01, 1e-3}) {
      const linalg::SparseMatrix a = stepper_matrix(model, dt);
      EXPECT_EQ(linalg::min_degree_ordering(a), g_order)
          << cores << " cores, dt " << dt;
      EXPECT_EQ(a.row_offsets(), model.conductance_sparse().row_offsets());
      EXPECT_EQ(a.col_indices(), model.conductance_sparse().col_indices());
    }
  }
}

std::uint64_t samples(const char* histogram) {
  return obs::MetricsRegistry::instance().histogram(histogram).count();
}

// A model analyzes its pattern once, on first use, whichever factor asks
// first; G's factor and the steppers of every dt, asked for through any
// analyzer sharing the model, share that one analysis (the same object),
// and each of those factors gives the bits of one built on an analysis
// of its own.
TEST(ThermalOrdering, OneOrderingPerModelServesEveryFactor) {
  const core::SocSpec soc = synthetic_soc(246);
  const auto shared =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  const thermal::ThermalAnalyzer first(shared);
  const thermal::ThermalAnalyzer second(shared);
  const thermal::RCModel& model = first.model();
  const std::uint64_t orderings = samples("thermal.ordering_ns");
  const std::uint64_t analyses = samples("thermal.symbolic_ns");
  thermal::ThermalSolverCache cache;
  const auto stepper = cache.sparse_stepper(model, 0.01);
  EXPECT_EQ(samples("thermal.ordering_ns"), orderings + 1);
  EXPECT_EQ(samples("thermal.symbolic_ns"), analyses + 1);
  const auto other = cache.sparse_stepper(second.model(), 1e-3);
  const linalg::SparseCholeskyFactor& steady = second.model().steady_factor();
  EXPECT_EQ(samples("thermal.ordering_ns"), orderings + 1);
  EXPECT_EQ(samples("thermal.symbolic_ns"), analyses + 1);

  const linalg::SymbolicCholesky* const symbolic = model.symbolic().get();
  EXPECT_EQ(second.model().symbolic().get(), symbolic);
  EXPECT_EQ(&stepper->factor().symbolic(), symbolic);
  EXPECT_EQ(&other->factor().symbolic(), symbolic);
  EXPECT_EQ(&steady.symbolic(), symbolic);
  EXPECT_EQ(symbolic->permutation(),
            linalg::min_degree_ordering(model.conductance_sparse()));

  std::vector<double> rhs(model.node_count(), 0.0);
  for (std::size_t i = 0; i < model.block_count(); ++i) {
    rhs[i] = 1.0 + static_cast<double>(i % 7);
  }
  const auto own = std::make_shared<const linalg::SymbolicCholesky>(
      model.conductance_sparse(),
      linalg::min_degree_ordering(model.conductance_sparse()));
  const linalg::SparseCholeskyFactor self_analyzed(own,
                                                   model.conductance_sparse());
  EXPECT_EQ(steady.solve(rhs), self_analyzed.solve(rhs));
  const linalg::SparseImplicitStepper self_stepper(
      own, model.conductance_sparse(), model.capacitance(), 0.01);
  const std::vector<double> from(model.node_count(), 0.5);
  EXPECT_EQ(stepper->step(from, rhs), self_stepper.step(from, rhs));
}

// Below kOrderingAutoMinNodes a model orders nothing: its analysis, and
// so every factor, runs in natural order.
TEST(ThermalOrdering, SmallModelsFactorInNaturalOrder) {
  const core::SocSpec soc = synthetic_soc(8);
  const thermal::RCModel model(soc.flp, soc.package);
  ASSERT_LT(model.node_count(), linalg::kOrderingAutoMinNodes);
  const std::uint64_t orderings = samples("thermal.ordering_ns");
  const std::uint64_t analyses = samples("thermal.symbolic_ns");
  EXPECT_TRUE(model.symbolic()->permutation().empty());
  EXPECT_EQ(&model.steady_factor().symbolic(), model.symbolic().get());
  thermal::ThermalSolverCache cache;
  EXPECT_EQ(&cache.sparse_stepper(model, 0.01)->factor().symbolic(),
            model.symbolic().get());
  EXPECT_EQ(samples("thermal.ordering_ns"), orderings);
  EXPECT_EQ(samples("thermal.symbolic_ns"), analyses + 1);
}

// SteadyFactorSlot is the one place that picks the order: natural below
// kOrderingAutoMinNodes nodes, min_degree_ordering at and above, for
// block and grid models alike.
TEST(ThermalOrdering, SlotResolvesTheOrderByNodeCount) {
  const std::size_t edge =
      linalg::kOrderingAutoMinNodes - thermal::kPackageNodes;
  const core::SocSpec below_soc = synthetic_soc(edge - 1);
  const thermal::RCModel below(below_soc.flp, below_soc.package);
  ASSERT_EQ(below.node_count(), linalg::kOrderingAutoMinNodes - 1);
  EXPECT_TRUE(below.symbolic()->permutation().empty());
  const core::SocSpec at_soc = synthetic_soc(edge);
  const thermal::RCModel at(at_soc.flp, at_soc.package);
  ASSERT_EQ(at.node_count(), linalg::kOrderingAutoMinNodes);
  EXPECT_EQ(at.symbolic()->permutation(),
            linalg::min_degree_ordering(at.conductance_sparse()));

  const core::SocSpec fig1 = soc::fig1_soc();
  const thermal::GridThermalModel grid(fig1.flp, fig1.package, {8, 8});
  thermal::SteadyFactorSlot slot;
  EXPECT_EQ(slot.symbolic(grid.conductance())->permutation(),
            linalg::min_degree_ordering(grid.conductance()));
  EXPECT_EQ(&slot.get(grid.conductance()).symbolic(),
            slot.symbolic(grid.conductance()).get());
}

}  // namespace
}  // namespace thermo
