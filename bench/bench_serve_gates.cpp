// Serve-stack timing gates: the four serve properties only wall time can
// show. Exact serve properties are gtests and serve-matrix rows; the
// smoke.bench_{dispatch,gen,obs,persist} ctests check this record's exact
// fields (cmake/CheckServeGates.cmake).
//
//   ./build/bench/bench_serve_gates --json BENCH_serve_gates.json
//
// Schema "thermo.bench_serve_gates.v1": "stream" (lines, duplicates and
// memo_hits of the shared gen stream), then one object per gate under
// "gates", each holding its measured numbers and `ok`:
//   ljf        60 small requests, the 1536-core whale LAST: fifo
//              makespan >= 1.3 x ljf's (identical orders differ only by
//              noise), and the whale's serial wall tops every small's;
//   edf        one deadline-free whale per worker FIRST, then 12 small
//              requests due at 30 ms: fifo misses some, edf fewer;
//   overhead   the gen stream, observability off vs on (metrics + trace):
//              min wall on <= 1.05 x off + 0.05 s, same bytes;
//   warm_cache the stream cold, then warm, each through a fresh
//              DiskResultMemo: warm >= 2x faster, executed == 0, bytes
//              identical, also after verify() (clean) and compact().
// Timed numbers are the min over --reps runs, each with a fresh runner.
// enforced = threads >= 4 && hardware threads >= 4 && count >= 1000 &&
// reps >= 2. Enforced, a failed gate exits 1; else gates are recorded.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "dispatch/disk_result_memo.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/request.hpp"
#include "scenario/serve.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace thermo;
using dispatch::SchedulePolicy;

/// A 1536-core synthetic SoC at 3x power, steady oracle, nine STCL
/// points: on 4 busy workers about as long as a third of the 60 small
/// requests, the skew at which ljf gains most (fifo/ljf -> 1.75). TL
/// binds, so the cost is each point's session construction and
/// validations; the solo pre-pass runs once per request and is small.
/// Distinct power corners keep the memo out of it.
std::string heavy_line(const std::string& id, double power_scale) {
  scenario::ScenarioRequest heavy;
  heavy.id = id;
  heavy.soc.kind = scenario::SocKind::kSynthetic;
  heavy.soc.synthetic.seed = 7;
  heavy.soc.synthetic.cores = 1536;
  heavy.soc.synthetic.test_length_min = 0.02;
  heavy.soc.synthetic.test_length_max = 0.02;
  heavy.soc.power_scale = 3.0 * power_scale;
  heavy.tl = 155.0;
  heavy.stc_scale = 10.0;
  heavy.stcl.min = 50.0;
  heavy.stcl.max = 130.0;
  heavy.stcl.step = 10.0;
  heavy.solver.transient = false;
  return scenario::to_json_line(heavy) + "\n";
}

/// A transient request on the i-th 16-core synthetic SoC, ≈3 ms
/// serial. Each small builds its own model and unit-step responses: 60
/// requests on one geometry would share them and cost ≈12 us each after
/// the first, too little for any placement to matter.
std::string small_line(const std::string& id, std::size_t i,
                       double deadline_s) {
  scenario::ScenarioRequest small;
  small.id = id;
  small.soc.kind = scenario::SocKind::kSynthetic;
  small.soc.synthetic.seed = 1000 + i;
  small.soc.synthetic.cores = 16;
  small.stcl.min = small.stcl.max = 50.0;
  small.deadline_s = deadline_s;
  return scenario::to_json_line(small) + "\n";
}

struct Run {
  std::string output;
  scenario::ServeSummary summary;
};

Run serve(const std::string& requests, std::size_t threads,
          SchedulePolicy policy, bool dedup,
          dispatch::DiskResultMemo* disk_memo = nullptr) {
  std::istringstream in(requests);
  std::ostringstream out;
  scenario::ScenarioRunner runner;
  scenario::ServeOptions options;
  options.threads = threads;
  options.policy = policy;
  options.dedup = dedup;
  options.disk_memo = disk_memo;
  Run run;
  run.summary = scenario::serve_stream(in, out, runner, options);
  run.output = out.str();
  return run;
}

/// One "process" over `cache_dir`: a fresh runner and DiskResultMemo.
Run serve_from_disk(const std::string& requests, std::size_t threads,
                    const std::string& cache_dir) {
  dispatch::DiskResultMemo memo(cache_dir);
  return serve(requests, threads, SchedulePolicy::kFifo, true, &memo);
}

template <typename T>
void keep_min(T* best, T value, long long rep) {
  if (rep == 0 || value < *best) *best = value;
}

template <typename T>
JsonValue num(T value) {
  return JsonValue::number(static_cast<double>(value));
}

}  // namespace

int main(int argc, char** argv) {
  long long threads = 4;
  long long reps = 2;
  long long count = 2000;
  std::string cache_dir = "bench_serve_gates_cache";
  std::string json_path;
  CliParser cli("bench_serve_gates",
                "Serve-stack timing gates: ljf and edf placement, "
                "observability overhead, warm disk-cache replay");
  cli.add_int("threads", "Worker threads for every timed serve", &threads);
  cli.add_int("reps", "Timed repetitions per config (min wins)", &reps);
  cli.add_int("count", "Lines in the seeded gen stream", &count);
  cli.add_string("cache-dir", "Cache directory (wiped at start)", &cache_dir);
  cli.add_string("json", "Write the JSON record here", &json_path);
  try {
    if (!cli.parse(argc, argv)) return 0;
    THERMO_REQUIRE(threads >= 1, "--threads must be >= 1");
    THERMO_REQUIRE(reps >= 1, "--reps must be >= 1");
    THERMO_REQUIRE(count >= 50, "--count must be >= 50");
    THERMO_REQUIRE(!cache_dir.empty(), "--cache-dir must be non-empty");
    const std::size_t workers = static_cast<std::size_t>(threads);
    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const bool enforced =
        threads >= 4 && hardware >= 4 && count >= 1000 && reps >= 2;

    // ljf: the whale arrives last, so fifo starts it only after the
    // smalls drain, while ljf starts it first and backfills the rest.
    std::string skewed;
    for (std::size_t i = 0; i < 60; ++i) {
      skewed += small_line("small-" + std::to_string(i), i, 0.0);
    }
    skewed += heavy_line("whale", 1.0);
    const Run serial = serve(skewed, 1, SchedulePolicy::kFifo, false);
    THERMO_REQUIRE(serial.summary.failed == 0, "skewed batch failed");
    const auto& timings = serial.summary.request_timings;
    const double whale_wall = timings.back().wall_seconds;
    double max_small_wall = 0.0;
    for (std::size_t i = 0; i + 1 < timings.size(); ++i) {
      max_small_wall = std::max(max_small_wall, timings[i].wall_seconds);
    }
    double fifo_makespan = 0.0;
    double ljf_makespan = 0.0;
    for (long long rep = 0; rep < reps; ++rep) {
      // Alternate which policy runs first, so host drift favours neither.
      for (const bool ljf : {rep % 2 == 1, rep % 2 == 0}) {
        keep_min(ljf ? &ljf_makespan : &fifo_makespan,
                 serve(skewed, workers,
                       ljf ? SchedulePolicy::kLjf : SchedulePolicy::kFifo,
                       false)
                     .summary.makespan_seconds,
                 rep);
      }
    }
    const bool cost_rank_ok = whale_wall > max_small_wall;
    const double ljf_speedup =
        ljf_makespan > 0.0 ? fifo_makespan / ljf_makespan : 0.0;
    const bool ljf_ok = ljf_speedup >= 1.3 && cost_rank_ok;

    // edf: under fifo every worker grabs a whale before any deadlined
    // request starts; edf starts the deadlined ones (0.03 < +inf) first.
    std::string slo;
    for (std::size_t i = 0; i < workers; ++i) {
      slo += heavy_line("heavy-" + std::to_string(i),
                        1.0 + 0.001 * static_cast<double>(i));
    }
    for (std::size_t i = 0; i < 12; ++i) {
      slo += small_line("light-" + std::to_string(i), i, 0.03);
    }
    std::size_t fifo_missed = 0;
    std::size_t edf_missed = 0;
    std::size_t deadline_requests = 0;
    for (long long rep = 0; rep < reps; ++rep) {
      const Run fifo = serve(slo, workers, SchedulePolicy::kFifo, false);
      const Run edf = serve(slo, workers, SchedulePolicy::kEdf, false);
      THERMO_REQUIRE(fifo.summary.failed == 0 && edf.summary.failed == 0,
                     "deadline batch failed");
      deadline_requests = fifo.summary.deadline_requests;
      keep_min(&fifo_missed, fifo.summary.deadline_missed, rep);
      keep_min(&edf_missed, edf.summary.deadline_missed, rep);
    }
    const bool edf_ok = fifo_missed > 0 && edf_missed < fifo_missed;

    // The shared gen stream: duplicates for the cache, shuffled arrival.
    gen::GenConfig config;
    config.seed = 17;
    config.count = static_cast<std::size_t>(count);
    config.dup_rate = 0.25;
    config.order = gen::OrderPattern::kShuffled;
    const gen::GeneratedStream generated = gen::generate_stream(config);
    std::ostringstream stream_buffer;
    gen::write_stream(generated, stream_buffer);
    const std::string stream = stream_buffer.str();

    // overhead: OFF/ON alternate inside each rep so drift hits both.
    obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
    double off_wall = 0.0;
    double on_wall = 0.0;
    bool obs_bytes_identical = true;
    std::size_t memo_hits = 0;
    for (long long rep = 0; rep < reps; ++rep) {
      obs::set_enabled(false);
      const Run off = serve(stream, workers, SchedulePolicy::kFifo, true);
      obs::set_enabled(true);
      recorder.start();
      const Run on = serve(stream, workers, SchedulePolicy::kFifo, true);
      recorder.stop();
      THERMO_REQUIRE(off.summary.failed == 0, "gen stream failed");
      obs_bytes_identical = obs_bytes_identical && on.output == off.output;
      memo_hits = on.summary.memo_hits;
      keep_min(&off_wall, off.summary.wall_seconds, rep);
      keep_min(&on_wall, on.summary.wall_seconds, rep);
    }
    const double overhead_ratio =
        off_wall > 0.0 ? (on_wall - off_wall) / off_wall : 0.0;
    const bool overhead_ok =
        on_wall <= off_wall * 1.05 + 0.05 && obs_bytes_identical;

    // warm_cache: cold, warm, then verify + compact and one more serve.
    std::filesystem::remove_all(cache_dir);
    const Run cold = serve_from_disk(stream, workers, cache_dir);
    const Run warm = serve_from_disk(stream, workers, cache_dir);
    bool verify_clean = false;
    {
      dispatch::DiskResultMemo memo(cache_dir);
      verify_clean = memo.store().verify().clean();
      memo.store().compact();
    }
    const Run compacted = serve_from_disk(stream, workers, cache_dir);
    const bool cache_bytes_identical =
        warm.output == cold.output && compacted.output == cold.output;
    const double cache_speedup =
        warm.summary.wall_seconds > 0.0
            ? cold.summary.wall_seconds / warm.summary.wall_seconds
            : 0.0;
    const bool cache_ok = cache_speedup >= 2.0 && cache_bytes_identical &&
                          warm.summary.executed == 0 && verify_clean;

    const auto verdict = [](bool ok) { return ok ? "ok" : "FAIL"; };
    std::cout
        << "serve gates: " << threads << " threads (" << hardware
        << " hardware), " << reps << " reps, " << count
        << "-line gen stream; " << (enforced ? "enforced" : "recorded only")
        << '\n'
        << "  ljf       : fifo " << format_double(fifo_makespan, 3)
        << " s, ljf " << format_double(ljf_makespan, 3) << " s ("
        << format_double(ljf_speedup, 2) << "x); whale "
        << format_double(whale_wall, 3) << " s serial vs max small "
        << format_double(max_small_wall, 3) << " s  " << verdict(ljf_ok)
        << '\n'
        << "  edf       : missed fifo " << fifo_missed << "/"
        << deadline_requests << ", edf " << edf_missed << "/"
        << deadline_requests << "  " << verdict(edf_ok) << '\n'
        << "  overhead  : off " << format_double(off_wall, 3) << " s, on "
        << format_double(on_wall, 3) << " s ("
        << format_double(overhead_ratio * 100.0, 1) << "%)  "
        << verdict(overhead_ok) << '\n'
        << "  warm_cache: cold " << format_double(cold.summary.wall_seconds, 3)
        << " s, warm " << format_double(warm.summary.wall_seconds, 3)
        << " s (" << format_double(cache_speedup, 1) << "x), executed "
        << warm.summary.executed << ", " << warm.summary.disk_hits
        << " disk hits  " << verdict(cache_ok) << '\n';

    if (!json_path.empty()) {
      JsonValue ljf = JsonValue::object();
      ljf.set("fifo_makespan_s", num(fifo_makespan));
      ljf.set("ljf_makespan_s", num(ljf_makespan));
      ljf.set("speedup", num(ljf_speedup));
      ljf.set("whale_wall_s", num(whale_wall));
      ljf.set("max_small_wall_s", num(max_small_wall));
      ljf.set("cost_rank_ok", JsonValue::boolean(cost_rank_ok));
      ljf.set("ok", JsonValue::boolean(ljf_ok));
      JsonValue edf = JsonValue::object();
      edf.set("deadline_requests", num(deadline_requests));
      edf.set("fifo_missed", num(fifo_missed));
      edf.set("edf_missed", num(edf_missed));
      edf.set("ok", JsonValue::boolean(edf_ok));
      JsonValue overhead = JsonValue::object();
      overhead.set("off_wall_s", num(off_wall));
      overhead.set("on_wall_s", num(on_wall));
      overhead.set("ratio", num(overhead_ratio));
      overhead.set("bytes_identical", JsonValue::boolean(obs_bytes_identical));
      overhead.set("ok", JsonValue::boolean(overhead_ok));
      JsonValue cache = JsonValue::object();
      cache.set("cold_wall_s", num(cold.summary.wall_seconds));
      cache.set("warm_wall_s", num(warm.summary.wall_seconds));
      cache.set("speedup", num(cache_speedup));
      cache.set("warm_executed", num(warm.summary.executed));
      cache.set("disk_hits", num(warm.summary.disk_hits));
      cache.set("verify_clean", JsonValue::boolean(verify_clean));
      cache.set("bytes_identical", JsonValue::boolean(cache_bytes_identical));
      cache.set("ok", JsonValue::boolean(cache_ok));
      JsonValue stream_record = JsonValue::object();
      stream_record.set("lines", num(generated.lines.size()));
      stream_record.set("duplicates", num(generated.stats.duplicates));
      stream_record.set("memo_hits", num(memo_hits));
      JsonValue gates = JsonValue::object();
      gates.set("ljf", std::move(ljf));
      gates.set("edf", std::move(edf));
      gates.set("overhead", std::move(overhead));
      gates.set("warm_cache", std::move(cache));
      JsonValue record = JsonValue::object();
      record.set("schema", JsonValue::string("thermo.bench_serve_gates.v1"));
      record.set("threads", num(threads));
      record.set("hardware_threads", num(hardware));
      record.set("reps", num(reps));
      record.set("count", num(count));
      record.set("enforced", JsonValue::boolean(enforced));
      record.set("stream", std::move(stream_record));
      record.set("gates", std::move(gates));
      std::ofstream out(json_path);
      THERMO_REQUIRE(static_cast<bool>(out),
                     "cannot open --json path for writing");
      out << record.dump() << '\n';
      out.flush();
      THERMO_REQUIRE(out.good(), "failed writing '" + json_path + "'");
      std::cout << "wrote " << json_path << '\n';
    }

    const bool all_ok = ljf_ok && edf_ok && overhead_ok && cache_ok;
    if (enforced && !all_ok) {
      std::cerr << "error: an enforced serve gate failed\n";
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
