#include "dispatch/engine.hpp"

#include <chrono>
#include <cstdint>
#include <ctime>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/for_each_index.hpp"

namespace thermo::dispatch {

namespace {

/// CPU seconds consumed by the calling thread; 0.0 where no per-thread
/// clock exists. Process-wide clocks would charge one job for its
/// neighbours' work, so they are not used as a fallback.
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

/// Engine metrics, resolved once per process (the registry hands out
/// stable references; docs/OBSERVABILITY.md catalogues the names).
struct EngineMetrics {
  obs::Counter& batches;
  obs::Counter& jobs;
  obs::Counter& executed;
  obs::Counter& memo_hits;
  obs::Histogram& queue_wait_ns;
  obs::Histogram& exec_ns;
  obs::Histogram& policy_sort_ns;
  obs::Histogram& memo_ns;
};

EngineMetrics& engine_metrics() {
  auto& registry = obs::MetricsRegistry::instance();
  static EngineMetrics metrics{registry.counter("dispatch.batches"),
                               registry.counter("dispatch.jobs"),
                               registry.counter("dispatch.executed"),
                               registry.counter("dispatch.memo_hits"),
                               registry.histogram("dispatch.queue_wait_ns"),
                               registry.histogram("dispatch.exec_ns"),
                               registry.histogram("dispatch.policy_sort_ns"),
                               registry.histogram("dispatch.memo_ns")};
  return metrics;
}

std::uint64_t to_ns(std::chrono::steady_clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() > 0 ? static_cast<std::uint64_t>(ns.count()) : 0;
}

}  // namespace

EngineStats run_batch(const std::vector<Job>& jobs,
                      const std::vector<std::size_t>& job_of_line,
                      const std::function<std::string(std::size_t)>& execute,
                      OrderedWriter& writer, const EngineOptions& options) {
  const std::size_t lines = job_of_line.size();
  EngineStats stats;
  stats.timings.resize(lines);
  EngineMetrics& metrics = engine_metrics();
  obs::TraceSpan batch_span("dispatch.batch");

  std::vector<std::vector<std::size_t>> lines_of(jobs.size());
  for (std::size_t i = 0; i < lines; ++i) {
    lines_of.at(job_of_line[i]).push_back(i);
  }

  // Memo planning, before any job executes, so which jobs execute never
  // depends on worker timing: each keyed job is looked up once, at its
  // first line, in one find_all() over the keys in first-line order (the
  // reads may run on the pool; the outcome is a find() loop's). A found
  // record is written to its job's lines in input order, from `found`
  // itself: an all-hit batch copies and buffers nothing.
  std::vector<std::optional<std::string>> found(jobs.size());
  if (options.memo != nullptr) {
    std::vector<std::size_t> keyed;  // jobs, in first-line order
    std::vector<std::string_view> keys;
    for (std::size_t i = 0; i < lines; ++i) {
      const std::size_t j = job_of_line[i];
      if (i == lines_of[j].front() && !jobs[j].memo_key.empty()) {
        keyed.push_back(j);
        keys.push_back(jobs[j].memo_key);
      }
    }
    obs::TraceSpan memo_span("dispatch.memo");
    obs::ScopedTimer memo_timer(metrics.memo_ns);
    std::vector<std::optional<std::string>> records =
        options.memo->find_all(keys, options.threads);
    for (std::size_t k = 0; k < keyed.size(); ++k) {
      found[keyed[k]] = std::move(records[k]);
    }
  }
  std::vector<std::size_t> scheduled;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::size_t j = job_of_line[i];
    const bool first = i == lines_of[j].front();
    if (first && !found[j]) scheduled.push_back(j);
    stats.timings[i].memo_hit = found[j] || !first;
    if (found[j]) writer.push(i, *found[j]);
  }

  std::vector<std::size_t> order;
  {
    obs::TraceSpan sort_span("dispatch.policy_sort");
    obs::ScopedTimer sort_timer(metrics.policy_sort_ns);
    order = execution_order(jobs, std::move(scheduled), options.policy);
  }

  // Execution-window origin: done_seconds and the makespan share this
  // timepoint, so "done before deadline" means "within deadline seconds
  // of the first possible execution start". Declared before run_one so
  // the lambda can capture it; assigned right before workers start.
  std::chrono::steady_clock::time_point exec_start;
  const auto run_one = [&](std::size_t j) {
    const auto wall_start = std::chrono::steady_clock::now();
    const double cpu_start = thread_cpu_seconds();
    std::string record;
    {
      obs::TraceSpan exec_span("dispatch.exec");
      record = execute(j);
    }
    const auto done = std::chrono::steady_clock::now();
    const std::vector<std::size_t>& own = lines_of[j];
    JobTiming& first = stats.timings[own.front()];
    first.cpu_seconds = thread_cpu_seconds() - cpu_start;
    first.wall_seconds =
        std::chrono::duration<double>(done - wall_start).count();
    // Queue wait shares done_seconds' clock origin: how long placement
    // (plus worker contention) held this job back.
    first.wait_seconds =
        std::chrono::duration<double>(wall_start - exec_start).count();
    metrics.queue_wait_ns.record(to_ns(wall_start - exec_start));
    metrics.exec_ns.record(to_ns(done - wall_start));
    const double done_seconds =
        std::chrono::duration<double>(done - exec_start).count();
    if (options.memo != nullptr && !jobs[j].memo_key.empty()) {
      options.memo->insert(jobs[j].memo_key, record);
    }
    for (const std::size_t line : own) {
      // Every line's record exists exactly when the job's does.
      stats.timings[line].done_seconds = done_seconds;
      writer.push(line, record);
    }
  };

  exec_start = std::chrono::steady_clock::now();
  // Rethrows the first execute exception, if any, after the rest ran.
  stats.threads = sweep::for_each_index(
      options.threads, order.size(),
      [&](std::size_t slot) { run_one(order[slot]); });
  stats.makespan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    exec_start)
          .count();
  stats.executed = order.size();
  stats.max_buffered = writer.max_buffered();
  writer.finish();
  metrics.batches.add();
  metrics.jobs.add(lines);
  metrics.executed.add(stats.executed);
  metrics.memo_hits.add(lines - stats.executed);
  return stats;
}

}  // namespace thermo::dispatch
