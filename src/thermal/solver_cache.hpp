// ThermalSolverCache: process-wide cache of the transient steppers,
// the sparse LDLᵗ factors of the backward-Euler system (C/dt + G),
// keyed by (RCModel::identity(), dt).
//
// The paper's Algorithm 1 validates thousands of candidate sessions
// against ONE fixed RC network; only the power vector changes per
// candidate. A transient session at step dt steps through (C/dt + G), so
// factoring it once per (model, dt) and back-substituting per step
// (2·nnz(L)) keeps stepping near-linear in the node count. (C/dt + G)
// has G's pattern for every dt, so each stepper factors through the
// model's one symbolic analysis (RCModel::symbolic), its order and
// elimination tree included, and does only the numeric pass.
// docs/SOLVERS.md has the full cost model. The steady-state factor of G
// is not cached here: each model owns it (RCModel::steady_factor,
// GridThermalModel::steady_factor).
//
// Keying: RCModel::identity() is process-unique per *construction*, so
// a rebuilt model (changed floorplan or package) can never alias a
// stale stepper; every analyzer sharing a model shares its steppers (an
// RCModel is immutable after construction, so this is always sound).
// The dt key is the step's exact bit pattern.
//
// Concurrency: lookups take one mutex, but factorization itself runs
// OUTSIDE it — a factorization never stalls other workers' lookups.
// Two threads racing the same cold key may both factor; the first
// insert wins and both share its result. The returned steppers are
// const and thread-safe, so a sweep::for_each_index fanning one model
// across N threads factors (effectively) once and steps N-wide.
// Entries are evicted least-recently-used beyond `capacity()` to bound
// memory (a stepper holds nnz(L) + n doubles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "linalg/sparse_cholesky.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::thermal {

class ThermalSolverCache {
 public:
  /// The process-wide instance used by simulate_transient (and so by
  /// every transient ThermalAnalyzer). Separate instances are only
  /// useful in tests.
  static ThermalSolverCache& instance();

  explicit ThermalSolverCache(std::size_t capacity = 32);

  /// Sparse backward-Euler stepper for (C/dt + G), keyed by (model, dt).
  /// The dt key is the exact bit pattern — two dts compare equal iff
  /// their doubles are identical.
  std::shared_ptr<const linalg::SparseImplicitStepper> sparse_stepper(
      const RCModel& model, double dt);

  /// Drops everything.
  void clear();

  /// Maximum number of cached steppers before LRU eviction.
  std::size_t capacity() const { return capacity_; }

  /// Lookups count in the process-wide `thermal.solver_cache.hits` and
  /// `.misses` counters (docs/OBSERVABILITY.md), not here.
  struct Stats {
    std::size_t entries = 0;  ///< currently cached steppers
  };
  Stats stats() const;

 private:
  struct Key {
    std::uint64_t model = 0;
    std::uint64_t dt_bits = 0;  ///< the stepper's dt, bit for bit
    bool operator<(const Key& other) const;
  };
  struct Entry {
    std::shared_ptr<const linalg::SparseImplicitStepper> value;
    std::uint64_t last_used = 0;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<Key, Entry> entries_;
};

}  // namespace thermo::thermal
