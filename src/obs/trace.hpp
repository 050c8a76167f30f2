// Per-thread span tracing, exported as Chrome/Perfetto `traceEvents`
// JSON (docs/OBSERVABILITY.md "Trace format").
//
// Each thread records into its own fixed-capacity ring buffer — the hot
// path is one thread_local pointer load, one clock read, and three
// plain stores into a preallocated slot: no allocation, no atomics, no
// locks (the ring is single-writer; rings are only read after stop(),
// when thread joins have already published every store). When a ring
// wraps, the oldest events are overwritten (drop-oldest) and the loss
// is accounted exactly in dropped_events().
//
// Event names must be string literals (or otherwise outlive the
// recorder): the ring stores the pointer, never a copy — that is what
// keeps record() allocation-free.
//
// Export balances each thread's stream so every viewer accepts it:
// 'E' events whose 'B' was overwritten are skipped, and spans still
// open at snapshot time get a synthetic 'E' at the snapshot timestamp
// (tools/check_trace.py verifies both properties).
//
// Off by default; `thermosched serve --trace` starts it. The disabled
// path is a branch on one atomic flag, and tracing records timestamps
// only — output bytes never depend on it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json.hpp"

namespace thermo::obs {

/// One ring slot. `name` is a borrowed static string (see file comment).
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;  ///< monotonic, relative to start()
  char phase = 0;           ///< 'B' begin or 'E' end
};

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// True while a trace is being recorded (acquire load of one atomic —
  /// the whole cost when tracing is off).
  static bool active() {
    return active_flag_.load(std::memory_order_acquire);
  }

  /// Begins recording: clears previously captured rings, fixes each
  /// thread's ring capacity, zeroes the clock. Call while no other
  /// thread is recording (serve starts the trace before the batch).
  void start(std::size_t events_per_thread = kDefaultCapacity);

  /// Stops recording; captured events stay available for snapshot_json.
  void stop();

  /// Events overwritten by ring wraparound, summed over threads.
  std::uint64_t dropped_events() const;

  /// Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":
  /// "ms","otherData":{"dropped_events":N}}. Each event carries
  /// name/cat/ph/ts (µs, relative)/pid/tid; tids are assigned in thread
  /// registration order starting at 1. Call after stop().
  JsonValue snapshot_json() const;

  /// Hot path, called via TraceSpan when active().
  static void record(const char* name, char phase);

  static constexpr std::size_t kDefaultCapacity = 1u << 15;

 private:
  struct ThreadRing {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;  ///< capacity fixed at start()
    std::uint64_t total = 0;         ///< events ever recorded
  };

  TraceRecorder() = default;
  ThreadRing& ring_for_current_thread();

  static std::atomic<bool> active_flag_;
  static thread_local ThreadRing* tl_ring_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t stop_ns_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  mutable std::mutex mutex_;  ///< guards ring registration + snapshot
  // unique_ptr nodes: thread_local pointers into rings_ stay valid for
  // the process lifetime (rings are reset, never removed).
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

/// RAII begin/end span. Free when tracing is inactive: the constructor
/// branches on the active flag and the destructor on a cached pointer.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TraceRecorder::active()) {
      name_ = name;
      TraceRecorder::record(name, 'B');
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) TraceRecorder::record(name_, 'E');
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
};

}  // namespace thermo::obs
