// ThermalSolverCache: process-wide cache of sparse matrix factorizations
// keyed by model identity (RCModel and GridThermalModel share one
// identity counter — thermal/model_identity.hpp).
//
// The paper's Algorithm 1 validates thousands of candidate sessions
// against ONE fixed conductance matrix G — only the power vector (the
// right-hand side) changes per candidate. The same holds for every
// scenario sweep: the floorplan is fixed, the workloads vary. Factoring
// G once as sparse LDLᵗ (linalg/sparse_cholesky.hpp) and
// back-substituting per solve (2·nnz(L)) keeps the steady-state hot path
// near-linear in the node count; the transient backward-Euler system
// matrix (C/dt + G) gets the same treatment per (model, dt) pair.
// docs/SOLVERS.md has the full cost model.
//
// Keying: RCModel::identity() is process-unique per *construction*, so
// a rebuilt model (changed floorplan or package) can never alias a
// stale factor; copies of a model share its identity and therefore its
// factors (an RCModel is immutable after construction, so this is
// always sound).
//
// Who holds what: a ThermalAnalyzer asks for G's factor at most once
// and holds it, and a served geometry's core::PreparedModel factors G
// here once and hands it to every analyzer, so the steady hot path never
// takes this cache's mutex; G's entry then ages out of the LRU without
// harm. Steppers are looked up once per simulated session and are
// bounded by this cache alone.
//
// Concurrency: lookups take one mutex, but factorization itself runs
// OUTSIDE it — a factorization never stalls other workers' lookups.
// Two threads racing the same cold key may both factor; the first
// insert wins and both share its result. The returned factor objects
// are const and thread-safe, so a sweep::for_each_index fanning one
// model across N threads factors (effectively) once and solves N-wide.
// Entries are evicted
// least-recently-used beyond `capacity()` to bound memory (a factor
// holds nnz(L) + n doubles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "linalg/sparse_cholesky.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::thermal {

class ThermalSolverCache {
 public:
  /// The process-wide instance used by solve_steady_state /
  /// simulate_transient / ThermalAnalyzer. Separate instances are only
  /// useful in tests.
  static ThermalSolverCache& instance();

  explicit ThermalSolverCache(std::size_t capacity = 32);

  /// Sparse LDLᵗ factor of the model's conductance matrix G (steady
  /// state).
  std::shared_ptr<const linalg::SparseCholeskyFactor> sparse_cholesky(
      const RCModel& model);

  /// Sparse backward-Euler stepper for (C/dt + G), keyed by (model, dt).
  /// The dt key is the exact bit pattern — two dts compare equal iff
  /// their doubles are identical.
  std::shared_ptr<const linalg::SparseImplicitStepper> sparse_stepper(
      const RCModel& model, double dt);

  /// Grid-model factor, keyed by GridThermalModel::identity() — the
  /// identity space is shared with RCModel (thermal/model_identity.hpp),
  /// so grid and block factors coexist in one cache without aliasing.
  /// Steady-state only (the grid model has no transient path).
  std::shared_ptr<const linalg::SparseCholeskyFactor> sparse_cholesky(
      const GridThermalModel& model);

  /// Drops everything.
  void clear();

  /// Maximum number of cached factors before LRU eviction.
  std::size_t capacity() const { return capacity_; }

  struct Stats {
    std::size_t hits = 0;    ///< lookups served from the cache
    std::size_t misses = 0;  ///< lookups that had to factor
    std::size_t entries = 0; ///< currently cached factors
  };
  Stats stats() const;

 private:
  struct Key {
    std::uint64_t model = 0;
    /// 0 for the factor of G; otherwise the stepper's dt (dt > 0, so
    /// its bit pattern is never 0).
    std::uint64_t dt_bits = 0;
    bool operator<(const Key& other) const;
  };
  struct Entry {
    std::shared_ptr<const void> value;
    std::uint64_t last_used = 0;
  };

  /// Returns the cached entry for `key`, building it via `make` on miss;
  /// bumps LRU age and evicts beyond capacity. Caller provides the
  /// concrete type via the cast at the call site.
  std::shared_ptr<const void> lookup(
      const Key& key, const std::function<std::shared_ptr<const void>()>& make);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::map<Key, Entry> entries_;
};

}  // namespace thermo::thermal
