#include "scenario/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dispatch/disk_result_memo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/cost.hpp"
#include "sweep/for_each_index.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace thermo::scenario {

namespace {

/// One parsed input line: either a runnable request (id resolved, with
/// the engine's Job for it) or a ready-made ok:false record. Every line
/// is prepared before execution starts, on up to `threads` workers — the
/// dispatch engine needs the cost estimate and the canonical
/// serialization (the memo's content address) before placement. A line
/// that repeats an earlier line byte for byte shares that line's
/// PreparedLine when its record cannot depend on where it stands: the
/// earlier line parsed valid, with an explicit id and a finite cost.
/// Other lines (a `line-N` id, an error record) are prepared one by one.
struct PreparedLine {
  bool valid = false;
  bool shareable = false;     ///< verbatim repeats may reuse this line
  ScenarioRequest request;    ///< when valid
  dispatch::Job job;          ///< when valid
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

/// `keyed`: serialize the memo key (only when the memo will read it).
PreparedLine prepare_line(const std::string& text, std::size_t line_number,
                          bool keyed) {
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& parse_errors = registry.counter("scenario.parse_errors");
  static obs::Histogram& parse_ns = registry.histogram("scenario.parse_ns");
  PreparedLine prepared;
  try {
    const obs::ScopedTimer parse_timer(parse_ns);
    prepared.request = parse_request_line(text);
  } catch (const Error& e) {
    // Malformed JSON or an invalid request body: the record carries the
    // parser's message and the line NUMBER; the rest of the batch is
    // unaffected.
    parse_errors.add();
    return failed_line("line-" + std::to_string(line_number), e.what());
  }
  ScenarioRequest& request = prepared.request;
  prepared.shareable = !request.id.empty();
  if (request.id.empty()) request.id = "line-" + std::to_string(line_number);
  prepared.id = request.id;
  // A positive but tiny solver.dt overflows the step count, and a
  // non-finite cost would abort the placement of the whole batch.
  prepared.job.cost = estimate_request_cost(request);
  if (!std::isfinite(prepared.job.cost)) {
    return failed_line(prepared.id,
                       "scenario request: estimated cost is not finite "
                       "(solver.dt too small for the test lengths)");
  }
  if (keyed) {
    // The canonical serialization is the memo's content address
    // (identical bytes ⇔ identical record — the id default is already
    // resolved, so two lines that differ only in it do not alias). It
    // strips the SLO envelope: the deadline only says how urgently to
    // serve, the record is identical — two requests differing only
    // there must share one cache entry.
    ScenarioRequest key_form = request;
    key_form.deadline_s = 0.0;
    prepared.job.memo_key = to_json_line(key_form);
  }
  prepared.job.deadline =
      request.deadline_s > 0.0 ? request.deadline_s : dispatch::kNoDeadline;
  prepared.valid = true;
  return prepared;
}

/// Whether a serialized result record carries ok:true. Safe on the raw
/// bytes: records are canonically serialized ({"id":…,"ok":…), and the
/// literal `"ok":false` cannot occur inside a JSON string value — the
/// quotes there would be escaped as \" — so the substring test can only
/// match the record's own ok member.
bool record_is_ok(std::string_view record) {
  return record.find("\"ok\":false") == std::string_view::npos;
}

}  // namespace

ServeSummary serve_stream(std::istream& in, std::ostream& out,
                          ScenarioRunner& runner, const ServeOptions& options) {
  const auto batch_start = std::chrono::steady_clock::now();
  obs::TraceSpan batch_span("serve.batch");
  static obs::Counter& requests_metric =
      obs::MetricsRegistry::instance().counter("scenario.requests");

  // `prepared` holds one entry per line actually parsed; `source` maps
  // every request line to its entry. The front end runs in three steps:
  //   1. ingest (serial): read the lines, strip CR, skip blank lines, and
  //      group them by their full bytes in `table`, which keeps the one
  //      copy of each distinct line and compares keys in full, so a hash
  //      collision never merges two lines;
  //   2. prepare (parallel): prepare_line on each distinct line's first
  //      occurrence, slot g for distinct line g;
  //   3. whether a line may be shared depends only on its bytes, so a
  //      distinct line whose first occurrence is not shareable (a
  //      `line-N` id, an error record) has each repeat prepared under its
  //      own line number, in a second fan-out that is usually empty.
  // Every slot is written by one index only, so the entries do not
  // depend on the thread count.
  std::vector<PreparedLine> prepared;
  std::vector<std::size_t> source;
  {
    obs::TraceSpan parse_span("serve.parse");
    std::unordered_map<std::string, std::size_t> table;
    std::vector<const std::string*> texts;   // per distinct line
    std::vector<std::size_t> first_number;   // per distinct line
    std::vector<std::size_t> numbers;        // per request line
    std::string raw;
    std::size_t number = 0;
    while (std::getline(in, raw)) {
      ++number;
      if (!raw.empty() && raw.back() == '\r') raw.pop_back();  // CRLF input
      if (trim(raw).empty()) continue;
      const auto [it, fresh] = table.try_emplace(std::move(raw), texts.size());
      if (fresh) {
        texts.push_back(&it->first);
        first_number.push_back(number);
      }
      source.push_back(it->second);
      numbers.push_back(number);
    }

    prepared.resize(texts.size());
    sweep::for_each_index(options.threads, texts.size(), [&](std::size_t g) {
      prepared[g] = prepare_line(*texts[g], first_number[g], options.dedup);
    });

    std::vector<std::size_t> own;  // repeats of a line that is not shared
    for (std::size_t i = 0; i < source.size(); ++i) {
      const std::size_t g = source[i];
      if (numbers[i] != first_number[g] && !prepared[g].shareable) {
        own.push_back(i);
      }
    }
    const std::size_t distinct = texts.size();
    prepared.resize(distinct + own.size());
    sweep::for_each_index(options.threads, own.size(), [&](std::size_t k) {
      const std::size_t i = own[k];
      prepared[distinct + k] =
          prepare_line(*texts[source[i]], numbers[i], options.dedup);
    });
    for (std::size_t k = 0; k < own.size(); ++k) source[own[k]] = distinct + k;
  }
  const std::size_t n = source.size();
  requests_metric.add(n);

  // One job per distinct memo key, led by its first line, and one per
  // keyless line (dedup off, or an error record). `job_of_key` sees each
  // PreparedLine once: distinct lines may share a key (another deadline,
  // spacing or field order).
  std::vector<dispatch::Job> jobs;
  std::vector<std::size_t> job_source;  // per job: its PreparedLine
  std::vector<std::size_t> job_of_line(n);
  std::vector<std::size_t> job_of_slot(prepared.size(), n);  // n: none yet
  std::unordered_map<std::string_view, std::size_t> job_of_key;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = source[i];
    const std::string& key = prepared[g].job.memo_key;
    std::size_t& j = job_of_slot[g];
    if (j == n || key.empty()) {
      j = key.empty() ? jobs.size()
                      : job_of_key.try_emplace(key, jobs.size()).first->second;
      if (j == jobs.size()) {
        jobs.push_back(prepared[g].job);
        job_source.push_back(g);
      }
    }
    job_of_line[i] = j;
  }

  ServeSummary summary;
  summary.requests = n;
  summary.policy = options.policy;
  summary.dedup = options.dedup;

  // ok/failed are tallied as records stream out (memoized records never
  // pass through ScenarioResult, so the writer is the one place every
  // record crosses). Every line of a job carries the job's record, so
  // each record is scanned once, at its job's first written line.
  std::vector<signed char> job_ok(jobs.size(), -1);  // -1: not yet seen
  dispatch::OrderedWriter writer(
      out, n, [&](std::size_t index, std::string_view record) {
        signed char& ok = job_ok[job_of_line[index]];
        if (ok < 0) ok = record_is_ok(record) ? 1 : 0;
      });

  dispatch::EngineOptions engine_options;
  engine_options.threads = options.threads;
  engine_options.policy = options.policy;
  engine_options.memo = options.dedup ? options.disk_memo : nullptr;
  const std::size_t disk_hits_before =
      options.disk_memo != nullptr ? options.disk_memo->disk_hits() : 0;
  const dispatch::EngineStats stats = dispatch::run_batch(
      jobs, job_of_line,
      [&](std::size_t j) {
        const PreparedLine& line = prepared[job_source[j]];
        if (!line.valid) return line.error_record;
        return to_json(runner.run(line.request)).dump();
      },
      writer, engine_options);

  summary.threads = stats.threads;
  summary.makespan_seconds = stats.makespan_seconds;
  summary.executed = stats.executed;
  summary.memo_hits = n - stats.executed;
  summary.max_buffered = stats.max_buffered;
  summary.request_timings.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PreparedLine& line = prepared[source[i]];
    RequestTiming& timing = summary.request_timings[i];
    timing.id = line.id;
    timing.ok = job_ok[job_of_line[i]] == 1;
    timing.memo_hit = stats.timings[i].memo_hit;
    timing.cost = line.job.cost;
    timing.wall_seconds = stats.timings[i].wall_seconds;
    timing.cpu_seconds = stats.timings[i].cpu_seconds;
    timing.queue_wait_seconds = stats.timings[i].wait_seconds;
    timing.done_seconds = stats.timings[i].done_seconds;
    if (line.valid && line.request.deadline_s > 0.0) {
      timing.deadline_s = line.request.deadline_s;
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
