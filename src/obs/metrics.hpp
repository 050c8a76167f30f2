// Process-wide metrics: name-keyed counters and log-bucketed latency
// histograms (docs/OBSERVABILITY.md).
//
// The registry answers "where did the p95 go" for the serve pipeline
// without printf archaeology: every hot layer (dispatch, scenario,
// thermal, persist, sweep) records into named metrics, and one snapshot
// — the `metrics` member of `thermosched serve --summary-json`, or the
// `--metrics` stderr tables — exposes exact counts and latency
// quantiles for the whole process.
//
// Design constraints, in order:
//   * Observability must never change output bytes. Metrics record
//     counts and timestamps, never decisions — nothing in the serve
//     pipeline reads a metric back.
//   * The disabled path is a branch on ONE atomic flag: every record
//     call starts with `if (!enabled()) return;` on a relaxed load.
//   * The enabled hot path is lock-free: counters and histogram buckets
//     are relaxed atomics; the registry mutex is only taken on metric
//     *creation* (instrumentation sites cache the returned reference).
//   * Snapshots are byte-stable: iteration is in sorted-name order and
//     all JSON numbers are exact integers, so two snapshots of the same
//     counts dump identical bytes.
//
// Histogram shape (the HdrHistogram / SPDK idiom): values bucket by
// magnitude — shift = max(0, bit_width(v) - kSubBucketBits) — into 64
// sub-buckets per power of two, bounding relative error at ~1.6% while
// keeping record() to two shifts and one fetch_add. quantile() returns
// the *lower bound* of the bucket holding the rank, so planted values
// that are bucket floors round-trip exactly (tests/obs_test.cpp), and
// quantiles are a pure function of the recorded multiset — identical
// across thread interleavings.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace thermo::obs {

/// Master recording switch, default ON. A relaxed load of one atomic —
/// the whole cost of disabled observability. Toggling does not reset
/// anything; bench_serve_gates flips it to measure the overhead.
bool enabled();
void set_enabled(bool on);

/// Monotonic nanoseconds (steady_clock). Shared by ScopedTimer and the
/// trace recorder so span and histogram timestamps agree.
std::uint64_t now_ns();

/// Monotonically increasing event count. Never reads back into any
/// decision — counters are write-only for the pipeline.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Log-bucketed latency histogram over non-negative integer values
/// (nanoseconds by convention — metric names end in `_ns`). Lock-free:
/// record() is two shifts plus relaxed fetch_adds; there is no mutex
/// anywhere in this class.
class Histogram {
 public:
  /// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per power of
  /// two, i.e. worst-case relative bucket width 1/64 ≈ 1.6%.
  static constexpr unsigned kSubBucketBits = 6;
  static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
  /// shift ranges over 0..64-kSubBucketBits for 64-bit values.
  static constexpr unsigned kShifts = 64 - kSubBucketBits + 1;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kShifts) * kSubBuckets;

  /// Bucket index for a value (exposed for the exactness tests).
  static std::size_t bucket_index(std::uint64_t value);
  /// Smallest value mapping to bucket `index` — what quantile() returns.
  static std::uint64_t bucket_floor(std::size_t index);

  void record(std::uint64_t value);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const;  ///< 0 when empty
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Lower bound of the bucket holding rank ceil(q * count), q clamped
  /// to [0, 1]; 0 when empty. A pure function of the recorded multiset.
  std::uint64_t quantile(double q) const;

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII histogram timer: records elapsed nanoseconds on destruction.
/// When observability is disabled at construction it never reads the
/// clock at all.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) {
    if (enabled()) {
      histogram_ = &histogram;
      start_ns_ = now_ns();
    }
  }
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->record(now_ns() - start_ns_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

/// The process-wide registry. counter()/histogram() create on
/// first use and always return the same object for a name afterwards
/// (references stay valid for the process lifetime — sites cache them
/// in function-local statics). A name identifies exactly one kind;
/// asking for "x" as both a counter and a histogram throws
/// InvalidArgument, which keeps the snapshot unambiguous.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Byte-stable snapshot:
  ///   {"counters":{name:value,...},
  ///    "histograms":{name:{"count","sum","min","max",
  ///                        "p50","p90","p95","p99"},...}}
  /// Names iterate in sorted order; all numbers are exact integers.
  JsonValue to_json() const;

  /// Zeroes every metric (objects and references survive). Benches and
  /// tests use this to scope counters to one run.
  void reset();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mutex_;
  // std::map: pointer-stable nodes AND sorted iteration for free.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace thermo::obs
