#include "sweep/for_each_index.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace thermo::sweep {

std::size_t for_each_index(std::size_t threads, std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::min(threads, n);

  std::mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex
  const auto run = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      const std::scoped_lock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
    std::atomic<std::size_t> next{0};
    const auto worker_loop = [&](std::size_t worker) {
      // Metric lookups happen once per worker, not per index; the
      // per-worker busy counter makes load imbalance visible by name.
      obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
      obs::Counter& tasks = registry.counter("sweep.tasks");
      obs::Histogram& task_ns = registry.histogram("sweep.task_ns");
      obs::Counter& busy_ns = registry.counter(
          "sweep.worker." + std::to_string(worker) + ".busy_ns");
      const bool timed = obs::enabled();
      const std::uint64_t start = timed ? obs::now_ns() : 0;
      {
        obs::TraceSpan span("sweep.task");
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          run(i);
        }
      }
      if (timed) {
        const std::uint64_t elapsed = obs::now_ns() - start;
        tasks.add();
        task_ns.record(elapsed);
        busy_ns.add(elapsed);
      }
    };
    // jthread joins on destruction, so a failed spawn still waits for
    // the workers already running before the error propagates.
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker_loop, w);
  }

  if (first_error) std::rethrow_exception(first_error);
  return workers;
}

}  // namespace thermo::sweep
