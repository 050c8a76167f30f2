// ThermalSolverCache: cached steppers must agree with cold ones, cache
// entries must be keyed by model identity (never aliased across
// different models), the hit/miss accounting must reflect reuse, and
// LRU eviction must stay correct. The steady factor of G is not cached
// here (each model owns it), so a grid model's factor is checked to be
// built once without a single cache lookup.
#include "thermal/solver_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/sparse_cholesky.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::factorizations;
using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

/// Stepper lookups so far in this process, over every cache instance:
/// the `thermal.solver_cache.hits` and `.misses` counters.
std::uint64_t cache_hits() {
  return obs::MetricsRegistry::instance()
      .counter("thermal.solver_cache.hits")
      .value();
}
std::uint64_t cache_misses() {
  return obs::MetricsRegistry::instance()
      .counter("thermal.solver_cache.misses")
      .value();
}

std::vector<double> centre_power(std::size_t blocks, double watts) {
  std::vector<double> power(blocks, 0.0);
  power[blocks / 2] = watts;
  return power;
}

/// A fresh analysis of the model's G in natural order: these models are
/// below kOrderingAutoMinNodes, so the model's own analysis is natural too.
std::shared_ptr<const linalg::SymbolicCholesky> cold_symbolic(
    const RCModel& model) {
  EXPECT_LT(model.node_count(), linalg::kOrderingAutoMinNodes);
  return std::make_shared<const linalg::SymbolicCholesky>(
      model.conductance_sparse(), std::vector<std::size_t>{});
}

// One backward-Euler step from `from` through a freshly factored
// stepper: what every cached stepper of (model, dt) must reproduce.
std::vector<double> cold_step(const RCModel& model, double dt,
                              const std::vector<double>& from,
                              const std::vector<double>& power) {
  return linalg::SparseImplicitStepper(cold_symbolic(model),
                                       model.conductance_sparse(),
                                       model.capacitance(), dt)
      .step(from, power);
}

TEST(ThermalSolverCacheTest, CachedSteadySolveMatchesColdSolve) {
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);

  // Cold: factor from scratch, outside the model.
  const std::vector<double> expanded = model.expand_power(block_power);
  const linalg::SparseCholeskyFactor cold(cold_symbolic(model),
                                         model.conductance_sparse());
  const std::vector<double> cold_rise = cold.solve(expanded);

  // First call factors into the model; second call reuses the factor.
  const SteadyStateResult first = solve_steady_state(model, block_power);
  const SteadyStateResult second = solve_steady_state(model, block_power);

  ASSERT_EQ(first.temperature.size(), cold_rise.size());
  const double ambient = model.package().ambient;
  for (std::size_t i = 0; i < cold_rise.size(); ++i) {
    // Same factorization algorithm on the same matrix, and the same
    // ambient addition: bitwise equal.
    EXPECT_EQ(first.temperature[i], ambient + cold_rise[i]);
    EXPECT_EQ(second.temperature[i], ambient + cold_rise[i]);
  }
}

TEST(ThermalSolverCacheTest, RepeatLookupsHitTheCache) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});

  const std::uint64_t hits_before = cache_hits();
  const std::uint64_t misses_before = cache_misses();
  const auto first = cache.sparse_stepper(model, 1e-3);
  EXPECT_EQ(cache_misses() - misses_before, 1u);
  EXPECT_EQ(cache_hits() - hits_before, 0u);

  const auto second = cache.sparse_stepper(model, 1e-3);
  EXPECT_EQ(cache_misses() - misses_before, 1u);
  EXPECT_EQ(cache_hits() - hits_before, 1u);
  EXPECT_EQ(first.get(), second.get());  // literally the same factor
}

TEST(ThermalSolverCacheTest, AnalyzersSharingAModelShareItsSteppers) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const auto model =
      std::make_shared<const RCModel>(nine_floorplan(), PackageParams{});
  ThermalAnalyzer first(model);
  ThermalAnalyzer second(model);
  EXPECT_EQ(first.model().identity(), second.model().identity());
  const std::uint64_t misses_before = cache_misses();
  const std::vector<double> power = centre_power(9, 10.0);
  const SessionSimulation a = first.simulate_session(power, 0.01);
  EXPECT_EQ(second.simulate_session(power, 0.01).peak_temperature,
            a.peak_temperature);
  EXPECT_EQ(cache_misses() - misses_before, 1u);
  EXPECT_EQ(cache.sparse_stepper(first.model(), 1e-3).get(),
            cache.sparse_stepper(second.model(), 1e-3).get());
}

TEST(ThermalSolverCacheTest, DistinctModelsNeverAliasEntries) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  // Identical construction parameters still yield distinct identities —
  // a rebuilt model can never pick up a stale stepper.
  const RCModel a(nine_floorplan(), PackageParams{});
  const RCModel b(nine_floorplan(), PackageParams{});
  EXPECT_NE(a.identity(), b.identity());
  EXPECT_NE(cache.sparse_stepper(a, 1e-3).get(),
            cache.sparse_stepper(b, 1e-3).get());

  // A genuinely different model (hotter package) must produce different
  // temperatures even when solved back-to-back through the cache.
  PackageParams warmer;
  warmer.r_convec *= 2.0;
  const RCModel c(nine_floorplan(), warmer);
  const auto block_power = centre_power(9, 10.0);
  const SteadyStateResult cool = solve_steady_state(a, block_power);
  const SteadyStateResult warm = solve_steady_state(c, block_power);
  EXPECT_GT(warm.temperature[4], cool.temperature[4]);
}

TEST(ThermalSolverCacheTest, GridModelFactorsHitTheCache) {
  // A grid model owns its factor: repeat solves reuse the one built on
  // the first, and none of them looks anything up in the cache.
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{6, 6});

  const std::uint64_t hits_before = cache_hits();
  const std::uint64_t misses_before = cache_misses();
  const std::uint64_t factored_before = factorizations();
  const linalg::SparseCholeskyFactor& first = grid.steady_factor();
  const linalg::SparseCholeskyFactor& second = grid.steady_factor();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache_hits() - hits_before, 0u);
  EXPECT_EQ(cache_misses() - misses_before, 0u);
  EXPECT_EQ(factorizations() - factored_before, 1u);
  EXPECT_EQ(first.size(), grid.node_count());
}

TEST(ThermalSolverCacheTest, TransientStepperIsCachedPerDt) {
  // Through simulate_transient: repeat sessions at one dt reuse one
  // stepper; a new dt, or a fractional final step, is its own key.
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);
  const auto initial = ambient_state(model);
  TransientOptions options;
  options.dt = 1e-3;

  const std::uint64_t misses_before = cache_misses();
  simulate_transient(model, block_power, 0.01, initial, options);
  simulate_transient(model, block_power, 0.02, initial, options);
  EXPECT_EQ(cache_misses() - misses_before, 1u);

  options.dt = 2e-3;
  simulate_transient(model, block_power, 0.01, initial, options);
  EXPECT_EQ(cache_misses() - misses_before, 2u);

  // 0.0105 s at dt = 2e-3: five full steps plus a 0.5 ms remainder.
  simulate_transient(model, block_power, 0.0105, initial, options);
  EXPECT_EQ(cache_misses() - misses_before, 3u);
}

TEST(ThermalSolverCacheTest, TransientStepsAreCountedByIndex) {
  // Summing t += dt leaves 2.0 s at 1 ms 1.1e-13 s short, and 1.3 s
  // short too: whole steps are counted by index instead, with no sliver
  // step and no stepper besides dt's.
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);
  const auto initial = ambient_state(model);
  TransientOptions options;
  options.dt = 1e-3;
  const std::uint64_t misses_before = cache_misses();
  EXPECT_EQ(simulate_transient(model, block_power, 2.0, initial, options).steps,
            2000u);
  EXPECT_EQ(simulate_transient(model, block_power, 1.3, initial, options).steps,
            1300u);
  EXPECT_EQ(cache_misses() - misses_before, 1u);
}

TEST(ThermalSolverCacheTest, RepeatedTransientSimulationsAgreeExactly) {
  // A freshly constructed model has no cache entries, so the first run
  // factors cold and the second reuses the cached stepper.
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);
  const auto initial = ambient_state(model);
  TransientOptions options;
  options.dt = 1e-3;

  const TransientResult cold =
      simulate_transient(model, block_power, 0.02, initial, options);
  const TransientResult cached =
      simulate_transient(model, block_power, 0.02, initial, options);
  ASSERT_EQ(cold.steps, cached.steps);
  for (std::size_t i = 0; i < cold.final_temperature.size(); ++i) {
    EXPECT_DOUBLE_EQ(cold.final_temperature[i], cached.final_temperature[i]);
    EXPECT_DOUBLE_EQ(cold.peak_temperature[i], cached.peak_temperature[i]);
  }
}

TEST(ThermalSolverCacheTest, EvictionBeyondCapacityStaysCorrect) {
  ThermalSolverCache small(2);
  const RCModel a(nine_floorplan(), PackageParams{});
  const RCModel b(quad_floorplan(), PackageParams{});
  const RCModel c(nine_floorplan(), PackageParams{});
  small.sparse_stepper(a, 1e-3);
  small.sparse_stepper(b, 1e-3);
  small.sparse_stepper(c, 1e-3);  // evicts the LRU entry (a)
  EXPECT_EQ(small.stats().entries, 2u);

  const std::uint64_t misses_before = cache_misses();
  const auto refactored = small.sparse_stepper(a, 1e-3);
  EXPECT_EQ(cache_misses() - misses_before, 1u);
  // Still steps correctly after the round-trip through eviction.
  const auto power = a.expand_power(centre_power(9, 10.0));
  const std::vector<double> from(a.node_count(), 0.0);
  const auto next = refactored->step(from, power);
  const auto expected = cold_step(a, 1e-3, from, power);
  for (std::size_t i = 0; i < next.size(); ++i) {
    EXPECT_DOUBLE_EQ(next[i], expected[i]);
  }
}

TEST(ThermalSolverCacheTest, ClearEmptiesTheCache) {
  ThermalSolverCache cache(8);
  const RCModel model(quad_floorplan(), PackageParams{});
  cache.sparse_stepper(model, 2e-3);
  cache.sparse_stepper(model, 1e-3);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --- stepper entries: the (C/dt + G) key space -----------------------

TEST(SparseSolverCacheTest, RepeatSparseLookupsHitTheCache) {
  ThermalSolverCache cache(8);
  const RCModel model(nine_floorplan(), PackageParams{});
  const std::uint64_t hits_before = cache_hits();
  const std::uint64_t misses_before = cache_misses();
  const auto first = cache.sparse_stepper(model, 1e-3);
  EXPECT_EQ(cache_misses() - misses_before, 1u);
  const auto second = cache.sparse_stepper(model, 1e-3);
  EXPECT_EQ(cache_hits() - hits_before, 1u);
  EXPECT_EQ(first.get(), second.get());

  // The steady factor of G is the model's, not an entry; a second dt
  // is a distinct entry.
  model.steady_factor();
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.sparse_stepper(model, 2e-3);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SparseSolverCacheTest, DistinctModelsNeverAlias) {
  ThermalSolverCache cache(8);
  const auto a =
      std::make_shared<const RCModel>(nine_floorplan(), PackageParams{});
  const RCModel b(nine_floorplan(), PackageParams{});
  EXPECT_NE(cache.sparse_stepper(*a, 1e-3).get(),
            cache.sparse_stepper(b, 1e-3).get());
  const ThermalAnalyzer first(a);
  const ThermalAnalyzer second(a);
  EXPECT_EQ(cache.sparse_stepper(first.model(), 1e-3).get(),
            cache.sparse_stepper(second.model(), 1e-3).get());
}

TEST(SparseSolverCacheTest, SparseStepperIsCachedPerDt) {
  ThermalSolverCache cache(8);
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto s1 = cache.sparse_stepper(model, 1e-3);
  const auto s2 = cache.sparse_stepper(model, 1e-3);
  const auto s3 = cache.sparse_stepper(model, 2e-3);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_THROW(cache.sparse_stepper(model, 0.0), InvalidArgument);
}

TEST(SparseSolverCacheTest, LruEvictionBeyondCapacityStaysCorrect) {
  ThermalSolverCache small(2);
  const RCModel a(nine_floorplan(), PackageParams{});
  small.sparse_stepper(a, 1e-3);
  small.sparse_stepper(a, 2e-3);
  small.sparse_stepper(a, 4e-3);  // evicts the LRU entry (dt = 1e-3)
  EXPECT_EQ(small.stats().entries, 2u);

  const std::uint64_t misses_before = cache_misses();
  const auto refactored = small.sparse_stepper(a, 1e-3);
  EXPECT_EQ(cache_misses() - misses_before, 1u);
  const auto power = a.expand_power(std::vector<double>(9, 10.0));
  const std::vector<double> from(a.node_count(), 0.0);
  const auto next = refactored->step(from, power);
  const auto expected = cold_step(a, 1e-3, from, power);
  for (std::size_t i = 0; i < next.size(); ++i) {
    EXPECT_DOUBLE_EQ(next[i], expected[i]);
  }
}

}  // namespace
}  // namespace thermo::thermal
