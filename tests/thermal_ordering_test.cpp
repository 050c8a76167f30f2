// Minimum-degree ordering on the thermal models the serve path factors:
// the block RC networks of synthetic SoCs (die blocks plus package
// nodes coupled to every block, which the ordering withholds as dense
// rows) and a fine-grid model. The production ordering must equal the
// std::set reference permutation on each, since the permutation fixes
// the factor's bits and so every record built on it.
#include <gtest/gtest.h>

#include <vector>

#include "linalg/ordering.hpp"
#include "oracles/min_degree_reference.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_model.hpp"
#include "util/rng.hpp"

namespace thermo {
namespace {

TEST(ThermalOrderingOracle, SyntheticRcModelsMatchSetReference) {
  for (const std::size_t cores : {8u, 246u, 1000u}) {
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

}  // namespace
}  // namespace thermo
