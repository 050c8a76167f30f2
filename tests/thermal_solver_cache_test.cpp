// ThermalSolverCache: cached solves must agree with cold solves, cache
// entries must be keyed by model identity (never aliased across
// different models), the hit/miss accounting must reflect reuse, and
// LRU eviction must stay correct for both factor kinds (G and the
// backward-Euler (C/dt + G)).
#include "thermal/solver_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "linalg/sparse_cholesky.hpp"
#include "test_helpers.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

std::vector<double> centre_power(std::size_t blocks, double watts) {
  std::vector<double> power(blocks, 0.0);
  power[blocks / 2] = watts;
  return power;
}

TEST(ThermalSolverCacheTest, CachedSteadySolveMatchesColdSolve) {
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);

  // Cold: factor from scratch, outside the cache.
  const std::vector<double> expanded = model.expand_power(block_power);
  const linalg::SparseCholeskyFactor cold(model.conductance_sparse());
  const std::vector<double> cold_rise = cold.solve(expanded);

  // First call factors into the cache; second call reuses the factor.
  const SteadyStateResult first = solve_steady_state(model, block_power);
  const SteadyStateResult second = solve_steady_state(model, block_power);

  ASSERT_EQ(first.rise.size(), cold_rise.size());
  for (std::size_t i = 0; i < cold_rise.size(); ++i) {
    // Same factorization algorithm on the same matrix: bitwise equal.
    EXPECT_DOUBLE_EQ(first.rise[i], cold_rise[i]);
    EXPECT_DOUBLE_EQ(second.rise[i], cold_rise[i]);
  }
}

TEST(ThermalSolverCacheTest, RepeatLookupsHitTheCache) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});

  const auto before = cache.stats();
  const auto first = cache.sparse_cholesky(model);
  const auto stats_after_first = cache.stats();
  EXPECT_EQ(stats_after_first.misses - before.misses, 1u);
  EXPECT_EQ(stats_after_first.hits - before.hits, 0u);

  const auto second = cache.sparse_cholesky(model);
  const auto stats_after_second = cache.stats();
  EXPECT_EQ(stats_after_second.misses - before.misses, 1u);
  EXPECT_EQ(stats_after_second.hits - before.hits, 1u);
  EXPECT_EQ(first.get(), second.get());  // literally the same factor
}

TEST(ThermalSolverCacheTest, CopiesShareIdentityAndFactors) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});
  const RCModel copy = model;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(model.identity(), copy.identity());
  EXPECT_EQ(cache.sparse_cholesky(model).get(),
            cache.sparse_cholesky(copy).get());
}

TEST(ThermalSolverCacheTest, DistinctModelsNeverAliasEntries) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  // Identical construction parameters still yield distinct identities —
  // a rebuilt model can never pick up a stale factor.
  const RCModel a(nine_floorplan(), PackageParams{});
  const RCModel b(nine_floorplan(), PackageParams{});
  EXPECT_NE(a.identity(), b.identity());
  EXPECT_NE(cache.sparse_cholesky(a).get(), cache.sparse_cholesky(b).get());

  // A genuinely different model (hotter package) must produce different
  // temperatures even when solved back-to-back through the cache.
  PackageParams warmer;
  warmer.r_convec *= 2.0;
  const RCModel c(nine_floorplan(), warmer);
  const auto block_power = centre_power(9, 10.0);
  const SteadyStateResult cool = solve_steady_state(a, block_power);
  const SteadyStateResult warm = solve_steady_state(c, block_power);
  EXPECT_GT(warm.rise[4], cool.rise[4]);
}

TEST(ThermalSolverCacheTest, GridModelFactorsHitTheCache) {
  // GridThermalModel keys live in the same cache as RCModel keys
  // (shared identity counter): repeat lookups must hit.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{6, 6});

  const auto before = cache.stats();
  const auto first = cache.sparse_cholesky(grid);
  const auto second = cache.sparse_cholesky(grid);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits - before.hits, 1u);
  EXPECT_EQ(stats.misses - before.misses, 1u);
  EXPECT_EQ(first->size(), grid.node_count());
}

TEST(ThermalSolverCacheTest, GridAndBlockModelsNeverAlias) {
  // The shared identity counter guarantees a grid model and a block
  // model can never collide on a key, whatever their construction
  // order or node counts.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel block(quad_floorplan(), PackageParams{});
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{6, 6});
  EXPECT_NE(block.identity(), grid.identity());
  EXPECT_NE(
      static_cast<const void*>(cache.sparse_cholesky(block).get()),
      static_cast<const void*>(cache.sparse_cholesky(grid).get()));
}

TEST(ThermalSolverCacheTest, GridKeysParticipateInLruEviction) {
  // A small-capacity cache cycled over many grid models must keep
  // working (evicted keys simply refactor) — mirrors the RCModel LRU
  // test for the grid key space.
  ThermalSolverCache cache(2);
  std::vector<std::unique_ptr<GridThermalModel>> models;
  for (int i = 0; i < 4; ++i) {
    models.push_back(std::make_unique<GridThermalModel>(
        quad_floorplan(), PackageParams{}, GridOptions{4, 4}));
    cache.sparse_cholesky(*models.back());
  }
  EXPECT_LE(cache.stats().entries, 2u);

  // The oldest model was evicted: looking it up again refactors but
  // still yields a correct, usable factor.
  const std::size_t misses_before = cache.stats().misses;
  const auto refactored = cache.sparse_cholesky(*models.front());
  EXPECT_EQ(cache.stats().misses - misses_before, 1u);
  EXPECT_NO_THROW(refactored->solve(
      std::vector<double>(models.front()->node_count(), 1.0)));
}

TEST(ThermalSolverCacheTest, TransientStepperIsCachedPerDt) {
  // Through simulate_transient: repeat sessions at one dt reuse one
  // stepper; a new dt, or a fractional final step, is its own key.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);
  const auto initial = ambient_state(model);
  TransientOptions options;
  options.dt = 1e-3;

  const std::size_t misses_before = cache.stats().misses;
  simulate_transient(model, block_power, 0.01, initial, options);
  simulate_transient(model, block_power, 0.02, initial, options);
  EXPECT_EQ(cache.stats().misses - misses_before, 1u);

  options.dt = 2e-3;
  simulate_transient(model, block_power, 0.01, initial, options);
  EXPECT_EQ(cache.stats().misses - misses_before, 2u);

  // 0.0105 s at dt = 2e-3: five full steps plus a 0.5 ms remainder.
  simulate_transient(model, block_power, 0.0105, initial, options);
  EXPECT_EQ(cache.stats().misses - misses_before, 3u);
}

TEST(ThermalSolverCacheTest, TransientStepsAreCountedByIndex) {
  // Summing t += dt leaves 2.0 s at 1 ms 1.1e-13 s short, and 1.3 s
  // short too: whole steps are counted by index instead, with no sliver
  // step and no stepper besides dt's.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);
  const auto initial = ambient_state(model);
  TransientOptions options;
  options.dt = 1e-3;
  const std::size_t misses_before = cache.stats().misses;
  EXPECT_EQ(simulate_transient(model, block_power, 2.0, initial, options).steps,
            2000u);
  EXPECT_EQ(simulate_transient(model, block_power, 1.3, initial, options).steps,
            1300u);
  EXPECT_EQ(cache.stats().misses - misses_before, 1u);
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
  small.sparse_cholesky(a);
  small.sparse_cholesky(b);
  small.sparse_cholesky(c);  // evicts the LRU entry (a)
  EXPECT_EQ(small.stats().entries, 2u);

  const std::size_t misses_before = small.stats().misses;
  const auto refactored = small.sparse_cholesky(a);
  EXPECT_EQ(small.stats().misses - misses_before, 1u);
  // Still solves correctly after the round-trip through eviction.
  const auto power = a.expand_power(centre_power(9, 10.0));
  const auto rise = refactored->solve(power);
  const auto expected =
      linalg::SparseCholeskyFactor(a.conductance_sparse()).solve(power);
  for (std::size_t i = 0; i < rise.size(); ++i) {
    EXPECT_DOUBLE_EQ(rise[i], expected[i]);
  }
}

TEST(ThermalSolverCacheTest, ClearEmptiesTheCache) {
  ThermalSolverCache cache(8);
  const RCModel model(quad_floorplan(), PackageParams{});
  cache.sparse_cholesky(model);
  cache.sparse_stepper(model, 1e-3);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --- stepper entries: the (C/dt + G) key space -----------------------

TEST(SparseSolverCacheTest, RepeatSparseLookupsHitTheCache) {
  ThermalSolverCache cache(8);
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto first = cache.sparse_stepper(model, 1e-3);
  EXPECT_EQ(cache.stats().misses, 1u);
  const auto second = cache.sparse_stepper(model, 1e-3);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first.get(), second.get());

  // The steady factor of G and the stepper of the same model are
  // distinct entries.
  cache.sparse_cholesky(model);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SparseSolverCacheTest, DistinctModelsNeverAlias) {
  ThermalSolverCache cache(8);
  const RCModel a(nine_floorplan(), PackageParams{});
  const RCModel b(nine_floorplan(), PackageParams{});
  EXPECT_NE(cache.sparse_stepper(a, 1e-3).get(),
            cache.sparse_stepper(b, 1e-3).get());
  const RCModel copy = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(cache.sparse_stepper(a, 1e-3).get(),
            cache.sparse_stepper(copy, 1e-3).get());
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

  const std::size_t misses_before = small.stats().misses;
  const auto refactored = small.sparse_stepper(a, 1e-3);
  EXPECT_EQ(small.stats().misses - misses_before, 1u);
  const auto power = a.expand_power(std::vector<double>(9, 10.0));
  const std::vector<double> from(a.node_count(), 0.0);
  const auto next = refactored->step(from, power);
  const auto expected =
      linalg::SparseImplicitStepper(a.conductance_sparse(), a.capacitance(),
                                    1e-3)
          .step(from, power);
  for (std::size_t i = 0; i < next.size(); ++i) {
    EXPECT_DOUBLE_EQ(next[i], expected[i]);
  }
}

}  // namespace
}  // namespace thermo::thermal
