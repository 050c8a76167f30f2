#include "obs/trace.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace thermo::obs {

std::atomic<bool> TraceRecorder::active_flag_{false};
thread_local TraceRecorder::ThreadRing* TraceRecorder::tl_ring_ = nullptr;

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::start(std::size_t events_per_thread) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(1, events_per_thread);
  for (const auto& ring : rings_) {
    ring->total = 0;
    ring->events.assign(capacity_, TraceEvent{});
  }
  stop_ns_ = 0;
  start_ns_ = now_ns();
  // Release pairs with the acquire in active(): a thread that sees the
  // flag set also sees start_ns_ and the cleared rings.
  active_flag_.store(true, std::memory_order_release);
}

void TraceRecorder::stop() {
  active_flag_.store(false, std::memory_order_release);
  const std::lock_guard<std::mutex> lock(mutex_);
  stop_ns_ = now_ns();
}

TraceRecorder::ThreadRing& TraceRecorder::ring_for_current_thread() {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto ring = std::make_unique<ThreadRing>();
  ring->tid = static_cast<std::uint32_t>(rings_.size() + 1);
  ring->events.assign(capacity_, TraceEvent{});
  tl_ring_ = ring.get();
  rings_.push_back(std::move(ring));
  return *tl_ring_;
}

void TraceRecorder::record(const char* name, char phase) {
  TraceRecorder& recorder = instance();
  ThreadRing* ring = tl_ring_;
  if (ring == nullptr) ring = &recorder.ring_for_current_thread();
  if (ring->events.empty()) return;
  TraceEvent& event = ring->events[ring->total % ring->events.size()];
  event.name = name;
  event.ts_ns = now_ns() - recorder.start_ns_;
  event.phase = phase;
  ++ring->total;
}

std::uint64_t TraceRecorder::dropped_events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t capacity = ring->events.size();
    if (ring->total > capacity) dropped += ring->total - capacity;
  }
  return dropped;
}

JsonValue TraceRecorder::snapshot_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t end_offset =
      stop_ns_ > start_ns_ ? stop_ns_ - start_ns_ : now_ns() - start_ns_;

  JsonValue events = JsonValue::array();
  std::uint64_t dropped = 0;
  const auto emit = [&events](const char* name, char phase, std::uint64_t ts,
                              std::uint32_t tid) {
    JsonValue out = JsonValue::object();
    out.set("name", JsonValue::string(name));
    out.set("cat", JsonValue::string("thermo"));
    out.set("ph", JsonValue::string(std::string(1, phase)));
    // µs with ns precision; division by a power of 10^3 is monotone, so
    // per-tid ordering survives the unit change.
    out.set("ts", JsonValue::number(static_cast<double>(ts) / 1000.0));
    out.set("pid", JsonValue::number(1.0));
    out.set("tid", JsonValue::number(static_cast<double>(tid)));
    events.append(std::move(out));
  };

  for (const auto& ring : rings_) {
    const std::uint64_t capacity = ring->events.size();
    if (capacity == 0 || ring->total == 0) continue;
    if (ring->total > capacity) dropped += ring->total - capacity;
    const std::uint64_t kept = std::min(ring->total, capacity);
    // The kept window is the *suffix* of a stream that was balanced as
    // recorded, so an 'E' with no open 'B' can only mean its 'B' was
    // overwritten — skip it; everything still open at the end gets a
    // synthetic 'E' so viewers never see a dangling span.
    std::vector<const char*> open;
    std::uint64_t last_ts = 0;
    for (std::uint64_t k = ring->total - kept; k < ring->total; ++k) {
      const TraceEvent& event = ring->events[k % capacity];
      last_ts = event.ts_ns;
      if (event.phase == 'B') {
        open.push_back(event.name);
      } else {
        if (open.empty()) continue;  // begin was dropped by wraparound
        open.pop_back();
      }
      emit(event.name, event.phase, event.ts_ns, ring->tid);
    }
    const std::uint64_t close_ts = std::max(last_ts, end_offset);
    while (!open.empty()) {
      emit(open.back(), 'E', close_ts, ring->tid);
      open.pop_back();
    }
  }

  JsonValue out = JsonValue::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", JsonValue::string("ms"));
  JsonValue other = JsonValue::object();
  other.set("dropped_events",
            JsonValue::number(static_cast<double>(dropped)));
  out.set("otherData", std::move(other));
  return out;
}

}  // namespace thermo::obs
