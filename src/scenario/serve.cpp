#include "scenario/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "dispatch/disk_result_memo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/cost.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace thermo::scenario {

namespace {

/// One non-blank input line after the parse pass: either a runnable
/// request (id resolved) or a ready-made ok:false record. Parsing
/// happens up front on the calling thread —
/// the dispatch engine needs the canonical serialization (the memo's
/// content address) and the cost estimate before placement, and a
/// parse costs microseconds next to a scheduler run.
struct PreparedLine {
  bool valid = false;
  ScenarioRequest request;    ///< when valid
  std::string error_record;   ///< when !valid: the serialized record
  std::string id;             ///< resolved id, for the timing summary
};

/// A line that never reaches the runner: its ok:false record. Such
/// lines get no memo key, so the record is never memoized.
PreparedLine failed_line(std::string id, std::string error) {
  ScenarioResult result;
  result.id = std::move(id);
  result.ok = false;
  result.error = std::move(error);
  PreparedLine failed;
  failed.error_record = to_json(result).dump();
  failed.id = result.id;
  return failed;
}

PreparedLine prepare_line(const std::string& text, std::size_t line_number) {
  PreparedLine prepared;
  try {
    prepared.request = parse_request_line(text);
    if (prepared.request.id.empty()) {
      prepared.request.id = "line-" + std::to_string(line_number);
    }
    prepared.id = prepared.request.id;
    prepared.valid = true;
  } catch (const Error& e) {
    // Malformed JSON or an invalid request body: the record carries the
    // parser's message and the line NUMBER; the rest of the batch is
    // unaffected.
    return failed_line("line-" + std::to_string(line_number), e.what());
  }
  return prepared;
}

/// Whether a serialized result record carries ok:true. Safe on the raw
/// bytes: records are canonically serialized ({"id":…,"ok":…), and the
/// literal `"ok":false` cannot occur inside a JSON string value — the
/// quotes there would be escaped as \" — so the substring test can only
/// match the record's own ok member.
bool record_is_ok(const std::string& record) {
  return record.find("\"ok\":false") == std::string::npos;
}

}  // namespace

ServeSummary serve_stream(std::istream& in, std::ostream& out,
                          ScenarioRunner& runner, const ServeOptions& options) {
  const auto batch_start = std::chrono::steady_clock::now();
  obs::TraceSpan batch_span("serve.batch");
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& requests_metric = registry.counter("scenario.requests");
  static obs::Counter& parse_errors_metric =
      registry.counter("scenario.parse_errors");
  static obs::Histogram& parse_ns = registry.histogram("scenario.parse_ns");

  std::vector<PreparedLine> lines;
  {
    obs::TraceSpan parse_span("serve.parse");
    std::string raw;
    std::size_t number = 0;
    while (std::getline(in, raw)) {
      ++number;
      if (!raw.empty() && raw.back() == '\r') raw.pop_back();  // CRLF input
      if (trim(raw).empty()) continue;
      const obs::ScopedTimer line_timer(parse_ns);
      lines.push_back(prepare_line(raw, number));
      if (!lines.back().valid) parse_errors_metric.add();
    }
  }
  const std::size_t n = lines.size();
  requests_metric.add(n);

  // Job descriptions for the engine: the canonical serialization is the
  // memo's content address (identical bytes ⇔ identical record — the
  // id default is already resolved above, so two lines that differ only
  // in it do not alias). Keys are only serialized when the memo will
  // actually read them.
  std::vector<dispatch::Job> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (lines[i].valid) {
      // A positive but tiny solver.dt overflows the step count, and a
      // non-finite cost would abort the placement of the whole batch.
      const double cost = estimate_request_cost(lines[i].request);
      if (!std::isfinite(cost)) {
        lines[i] = failed_line(lines[i].id,
                               "scenario request: estimated cost is not "
                               "finite (solver.dt too small for the test "
                               "lengths)");
        continue;
      }
      jobs[i].cost = cost;
      if (options.dedup) {
        // The memo key strips the SLO envelope: the deadline only says
        // how urgently to serve, the record is identical — two requests
        // differing only there must share one cache entry.
        ScenarioRequest keyed = lines[i].request;
        keyed.deadline_s = 0.0;
        jobs[i].memo_key = to_json_line(keyed);
      }
      jobs[i].deadline = lines[i].request.deadline_s > 0.0
                             ? lines[i].request.deadline_s
                             : dispatch::kNoDeadline;
    }
  }

  ServeSummary summary;
  summary.requests = n;
  summary.policy = options.policy;
  summary.dedup = options.dedup;

  // ok/failed are tallied as records stream out (memoized records never
  // pass through ScenarioResult, so the writer is the one place every
  // record crosses).
  std::vector<int> ok_flags(n, 0);
  dispatch::OrderedWriter writer(
      out, n, [&](std::size_t index, const std::string& record) {
        ok_flags[index] = record_is_ok(record) ? 1 : 0;
      });

  dispatch::EngineOptions engine_options;
  engine_options.threads = options.threads;
  engine_options.policy = options.policy;
  engine_options.dedup = options.dedup;
  engine_options.memo = options.disk_memo;
  const std::size_t disk_hits_before =
      options.disk_memo != nullptr ? options.disk_memo->disk_hits() : 0;
  const dispatch::EngineStats stats = dispatch::run_batch(
      jobs,
      [&](std::size_t i) {
        if (!lines[i].valid) return lines[i].error_record;
        return to_json(runner.run(lines[i].request)).dump();
      },
      writer, engine_options);

  summary.threads = stats.threads;
  summary.makespan_seconds = stats.makespan_seconds;
  summary.executed = stats.executed;
  summary.memo_hits = stats.memo_hits;
  summary.max_buffered = stats.max_buffered;
  summary.request_timings.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    RequestTiming& timing = summary.request_timings[i];
    timing.id = lines[i].id;
    timing.ok = ok_flags[i] != 0;
    timing.memo_hit = stats.timings[i].memo_hit;
    timing.cost = jobs[i].cost;
    timing.wall_seconds = stats.timings[i].wall_seconds;
    timing.cpu_seconds = stats.timings[i].cpu_seconds;
    timing.queue_wait_seconds = stats.timings[i].wait_seconds;
    timing.done_seconds = stats.timings[i].done_seconds;
    if (lines[i].valid && lines[i].request.deadline_s > 0.0) {
      timing.deadline_s = lines[i].request.deadline_s;
      timing.deadline_met = timing.done_seconds <= timing.deadline_s;
      ++summary.deadline_requests;
      if (timing.deadline_met) {
        ++summary.deadline_met;
      } else {
        ++summary.deadline_missed;
      }
    }
    if (timing.ok) {
      ++summary.succeeded;
    } else {
      ++summary.failed;
    }
  }

  if (options.disk_memo != nullptr && options.dedup) {
    summary.disk_cache_enabled = true;
    summary.disk_hits = options.disk_memo->disk_hits() - disk_hits_before;
    const persist::SegmentStore::Stats disk =
        options.disk_memo->store().stats();
    summary.disk_records = disk.records;
    summary.disk_segments = disk.segments;
    summary.disk_bytes = disk.disk_bytes;
  }
  summary.runner = runner.stats();
  summary.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    batch_start)
          .count();
  return summary;
}

JsonValue serve_summary_to_json(const ServeSummary& summary) {
  JsonValue out = JsonValue::object();
  out.set("schema", JsonValue::string("thermo.serve_summary.v2"));
  out.set("requests",
          JsonValue::number(static_cast<double>(summary.requests)));
  out.set("ok", JsonValue::number(static_cast<double>(summary.succeeded)));
  out.set("failed", JsonValue::number(static_cast<double>(summary.failed)));
  out.set("threads", JsonValue::number(static_cast<double>(summary.threads)));
  out.set("policy",
          JsonValue::string(dispatch::schedule_policy_name(summary.policy)));
  out.set("dedup", JsonValue::boolean(summary.dedup));
  out.set("wall_s", JsonValue::number(summary.wall_seconds));
  out.set("makespan_s", JsonValue::number(summary.makespan_seconds));
  out.set("max_buffered",
          JsonValue::number(static_cast<double>(summary.max_buffered)));

  JsonValue memo = JsonValue::object();
  memo.set("executed",
           JsonValue::number(static_cast<double>(summary.executed)));
  memo.set("hits", JsonValue::number(static_cast<double>(summary.memo_hits)));
  memo.set("hit_rate",
           JsonValue::number(summary.requests > 0
                                 ? static_cast<double>(summary.memo_hits) /
                                       static_cast<double>(summary.requests)
                                 : 0.0));
  out.set("memo", std::move(memo));

  // SLO scoreboard: requests carrying a deadline_s, split by whether
  // their record existed within it (additive to schema v1 — consumers
  // that predate deadlines never see a changed field).
  JsonValue slo = JsonValue::object();
  slo.set("deadline_requests",
          JsonValue::number(static_cast<double>(summary.deadline_requests)));
  slo.set("met", JsonValue::number(static_cast<double>(summary.deadline_met)));
  slo.set("missed",
          JsonValue::number(static_cast<double>(summary.deadline_missed)));
  out.set("slo", std::move(slo));

  // Disk tier of the memo (serve --cache-dir). `enabled` is always
  // present so consumers can branch without probing for keys; counts
  // appear only when a disk cache actually served the batch.
  JsonValue disk_cache = JsonValue::object();
  disk_cache.set("enabled", JsonValue::boolean(summary.disk_cache_enabled));
  if (summary.disk_cache_enabled) {
    disk_cache.set("hits",
                   JsonValue::number(static_cast<double>(summary.disk_hits)));
    disk_cache.set(
        "records", JsonValue::number(static_cast<double>(summary.disk_records)));
    disk_cache.set(
        "segments",
        JsonValue::number(static_cast<double>(summary.disk_segments)));
    disk_cache.set("disk_bytes",
                   JsonValue::number(static_cast<double>(summary.disk_bytes)));
  }
  out.set("disk_cache", std::move(disk_cache));

  JsonValue model_cache = JsonValue::object();
  model_cache.set("hits", JsonValue::number(
                              static_cast<double>(summary.runner.model_hits)));
  model_cache.set(
      "misses",
      JsonValue::number(static_cast<double>(summary.runner.model_misses)));
  out.set("model_cache", std::move(model_cache));

  // Tail latency over the per-request wall times: the slowest request
  // and the p95 — the numbers the scheduling policy exists to improve.
  JsonValue tail = JsonValue::object();
  std::string slowest_id;
  double slowest_wall = 0.0;
  std::vector<double> walls;
  walls.reserve(summary.request_timings.size());
  for (const RequestTiming& timing : summary.request_timings) {
    walls.push_back(timing.wall_seconds);
    if (timing.wall_seconds > slowest_wall) {
      slowest_wall = timing.wall_seconds;
      slowest_id = timing.id;
    }
  }
  double p95 = 0.0;
  if (!walls.empty()) {
    std::sort(walls.begin(), walls.end());
    const std::size_t rank = (walls.size() * 95 + 99) / 100;  // ceil(0.95 n)
    p95 = walls[rank == 0 ? 0 : rank - 1];
  }
  tail.set("slowest_id", JsonValue::string(slowest_id));
  tail.set("slowest_wall_s", JsonValue::number(slowest_wall));
  tail.set("p95_wall_s", JsonValue::number(p95));
  out.set("tail", std::move(tail));

  JsonValue timings = JsonValue::array();
  for (const RequestTiming& timing : summary.request_timings) {
    JsonValue t = JsonValue::object();
    t.set("id", JsonValue::string(timing.id));
    t.set("ok", JsonValue::boolean(timing.ok));
    t.set("memo_hit", JsonValue::boolean(timing.memo_hit));
    t.set("cost", JsonValue::number(timing.cost));
    t.set("wall_s", JsonValue::number(timing.wall_seconds));
    t.set("cpu_s", JsonValue::number(timing.cpu_seconds));
    t.set("queue_wait_s", JsonValue::number(timing.queue_wait_seconds));
    t.set("done_s", JsonValue::number(timing.done_seconds));
    if (timing.deadline_s > 0.0) {
      t.set("deadline_s", JsonValue::number(timing.deadline_s));
      t.set("deadline_met", JsonValue::boolean(timing.deadline_met));
    }
    timings.append(std::move(t));
  }
  out.set("request_timings", std::move(timings));

  // Process-wide metrics snapshot (additive to schema v1): the obs
  // registry's counters/histograms at dump time. Counters are
  // process totals — in a one-shot `thermosched serve` they equal this
  // batch's stats exactly (tests/obs_serve_test.cpp cross-checks that).
  out.set("metrics", obs::MetricsRegistry::instance().to_json());
  return out;
}

}  // namespace thermo::scenario
