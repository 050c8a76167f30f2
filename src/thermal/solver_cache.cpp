#include "thermal/solver_cache.hpp"

#include <cstring>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

namespace {

std::uint64_t bits_of(double dt) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(dt));
  std::memcpy(&bits, &dt, sizeof(bits));
  return bits;
}

/// Cache observability (docs/OBSERVABILITY.md): hit/miss/eviction
/// counts of stepper lookups plus the wall time of the factorizations
/// the cache exists to amortize.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Histogram& factor_ns;
};

CacheMetrics& cache_metrics() {
  auto& registry = obs::MetricsRegistry::instance();
  static CacheMetrics metrics{
      registry.counter("thermal.solver_cache.hits"),
      registry.counter("thermal.solver_cache.misses"),
      registry.counter("thermal.solver_cache.evictions"),
      registry.histogram("thermal.factor_ns")};
  return metrics;
}

}  // namespace

bool ThermalSolverCache::Key::operator<(const Key& other) const {
  return std::tie(model, dt_bits) < std::tie(other.model, other.dt_bits);
}

ThermalSolverCache& ThermalSolverCache::instance() {
  static ThermalSolverCache cache;
  return cache;
}

ThermalSolverCache::ThermalSolverCache(std::size_t capacity)
    : capacity_(capacity) {
  THERMO_REQUIRE(capacity > 0, "solver cache capacity must be positive");
}

std::shared_ptr<const linalg::SparseImplicitStepper>
ThermalSolverCache::sparse_stepper(const RCModel& model, double dt) {
  THERMO_REQUIRE(dt > 0.0, "solver cache: dt must be positive");
  const Key key{model.identity(), bits_of(dt)};
  CacheMetrics& metrics = cache_metrics();
  {
    std::scoped_lock lock(mutex_);
    ++tick_;
    if (auto it = entries_.find(key); it != entries_.end()) {
      metrics.hits.add();
      it->second.last_used = tick_;
      return it->second.value;
    }
    metrics.misses.add();
  }
  // Factor OUTSIDE the lock: a factorization must not stall every other
  // worker's cache lookup. Two threads racing the same key
  // may both factor; the first insert wins and both share its result
  // (the loser's work is discarded — rare, and merely wasted cycles).
  std::shared_ptr<const linalg::SparseImplicitStepper> value;
  {
    obs::TraceSpan factor_span("thermal.factor");
    obs::ScopedTimer factor_timer(metrics.factor_ns);
    value = std::make_shared<const linalg::SparseImplicitStepper>(
        model.symbolic(), model.conductance_sparse(), model.capacitance(),
        dt);
  }
  std::scoped_lock lock(mutex_);
  const auto [it, inserted] = entries_.try_emplace(key, Entry{value, tick_});
  if (!inserted) {
    it->second.last_used = ++tick_;
    return it->second.value;
  }
  while (entries_.size() > capacity_) {
    auto oldest = entries_.begin();
    for (auto candidate = entries_.begin(); candidate != entries_.end();
         ++candidate) {
      if (candidate->second.last_used < oldest->second.last_used) {
        oldest = candidate;
      }
    }
    entries_.erase(oldest);
    metrics.evictions.add();
  }
  return value;
}

void ThermalSolverCache::clear() {
  std::scoped_lock lock(mutex_);
  entries_.clear();
}

ThermalSolverCache::Stats ThermalSolverCache::stats() const {
  std::scoped_lock lock(mutex_);
  return Stats{entries_.size()};
}

}  // namespace thermo::thermal
