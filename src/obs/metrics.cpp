#include "obs/metrics.hpp"

#include <bit>
#include <chrono>
#include <cmath>

#include "util/error.hpp"

namespace thermo::obs {

namespace {

std::atomic<bool> g_enabled{true};

/// JSON numbers are doubles; past 2^53 an exact-integer snapshot is no
/// longer possible, so clamp there (a 104-day nanosecond sum — far past
/// anything a serve process accumulates, but the snapshot must never
/// silently round).
constexpr std::uint64_t kJsonExactMax = 1ull << 53;

JsonValue exact_number(std::uint64_t value) {
  return JsonValue::number(
      static_cast<double>(value < kJsonExactMax ? value : kJsonExactMax));
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t Histogram::bucket_index(std::uint64_t value) {
  const unsigned width = static_cast<unsigned>(std::bit_width(value));
  const unsigned shift = width <= kSubBucketBits ? 0 : width - kSubBucketBits;
  // shift == 0: value itself is the sub-bucket (linear range [0, 64)).
  // Otherwise the top kSubBucketBits bits select a sub-bucket in
  // [kSubBuckets/2, kSubBuckets).
  return static_cast<std::size_t>(shift) * kSubBuckets + (value >> shift);
}

std::uint64_t Histogram::bucket_floor(std::size_t index) {
  const std::size_t shift = index / kSubBuckets;
  const std::uint64_t slot = index % kSubBuckets;
  return slot << shift;
}

void Histogram::record(std::uint64_t value) {
  if (!enabled()) return;
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // min/max via CAS loops: contention here is one compare per record in
  // the common (no new extreme) case.
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const {
  const std::uint64_t value = min_.load(std::memory_order_relaxed);
  return value == UINT64_MAX ? 0 : value;
}

std::uint64_t Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (!(q > 0.0)) q = 0.0;  // also maps NaN to the first rank
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return bucket_floor(i);
  }
  // count() raced ahead of the bucket stores; the highest non-empty
  // bucket is the best consistent answer.
  for (std::size_t i = kBuckets; i-- > 0;) {
    if (buckets_[i].load(std::memory_order_relaxed) != 0) {
      return bucket_floor(i);
    }
  }
  return 0;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  THERMO_REQUIRE(histograms_.find(name) == histograms_.end(),
                 "metric name registered with a different kind");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  THERMO_REQUIRE(counters_.find(name) == counters_.end(),
                 "metric name registered with a different kind");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

JsonValue MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonValue out = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, counter] : counters_) {
    counters.set(name, exact_number(counter->value()));
  }
  out.set("counters", std::move(counters));
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, histogram] : histograms_) {
    JsonValue h = JsonValue::object();
    h.set("count", exact_number(histogram->count()));
    h.set("sum", exact_number(histogram->sum()));
    h.set("min", exact_number(histogram->min()));
    h.set("max", exact_number(histogram->max()));
    h.set("p50", exact_number(histogram->quantile(0.50)));
    h.set("p90", exact_number(histogram->quantile(0.90)));
    h.set("p95", exact_number(histogram->quantile(0.95)));
    h.set("p99", exact_number(histogram->quantile(0.99)));
    histograms.set(name, std::move(h));
  }
  out.set("histograms", std::move(histograms));
  return out;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace thermo::obs
