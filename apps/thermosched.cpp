// thermosched: command-line front end for the ThermoSched library.
//
// Subcommands (run `thermosched <command> --help` for that command's
// option list):
//
//   schedule  Run Algorithm 1 and print the thermal-safe schedule.
//             Options: --flp PATH --density D | --alpha, --tl, --stcl,
//             --stc-scale, --csv
//   simulate  Run one test session through the RC oracle; print per-core
//             peaks and an ASCII thermal map.
//             Options: --cores a,b,c (required), --flp/--density |
//             --alpha, --csv
//   sweep     Run Algorithm 1 once per STCL value in a range, fanned
//             across worker threads that share the model's cached
//             factorizations (sweep::for_each_index).
//             Options: --stcl-min, --stcl-max, --step, --threads,
//             --flp/--density | --alpha, --tl, --stc-scale, --csv
//   serve     Stream JSONL scenario requests through the scenario
//             runner (src/scenario), executed by the dispatch engine
//             (src/dispatch): cost-aware placement, duplicate-request
//             memoization, streaming ordered output. Emits one JSONL
//             result record per request; byte-deterministic for any
//             thread count, schedule policy, and dedup setting.
//             Schema: docs/SERVE.md.
//             Options: --in PATH|-, --out PATH|-, --threads,
//             --schedule-policy fifo|ljf|edf,
//             --dedup on|off, --summary-json PATH,
//             --cache-dir PATH (persistent
//             disk-backed result cache — docs/PERSIST.md),
//             --trace PATH, --metrics-json PATH, --metrics
//             (observability artifacts — docs/OBSERVABILITY.md)
//   cache     Inspect or maintain a --cache-dir directory:
//             `cache stats` prints store statistics, `cache verify`
//             re-checksums every record (exit 1 when damage is found),
//             `cache compact` rewrites live records into one segment.
//             Options: --cache-dir PATH (required)
//   gen       Emit a deterministic JSONL request stream for serve
//             (src/gen): Zipf-skewed sizes spanning the dense/sparse
//             crossover, tunable duplication rate, request-kind mix
//             (stcl_sweep / ptrace / chained), arrival-order pattern.
//             Identical flags always produce byte-identical streams.
//             Schema: docs/GEN.md.
//             Options: --count, --seed, --zipf, --dup, --order,
//             --mix-sweep, --mix-ptrace, --mix-chained, --mix-grid,
//             --deadline-rate, --out PATH|-
//   info      Print floorplan statistics (areas, adjacency, boundary
//             exposure, power densities).
//             Options: --flp PATH --density D | --alpha, --csv
//
// Exit codes:
//   0  success (including --help)
//   1  runtime error: unreadable/malformed input file, scheduler or
//      solver failure — the message is printed to stderr as "error: ..."
//   2  usage error: unknown command, unknown flag, malformed flag value,
//      missing required flag
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>

#include "core/stcl_sweep.hpp"
#include "core/thermal_scheduler.hpp"
#include "dispatch/disk_result_memo.hpp"
#include "dispatch/execution_order.hpp"
#include "persist/segment_store.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/serve.hpp"
#include "thermal/analyzer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "viz/heatmap.hpp"

using namespace thermo;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntimeError = 1;
constexpr int kExitUsageError = 2;

struct CommonArgs {
  std::string flp_path;
  double density = 1.0e6;
  bool alpha = false;
  double tl = 155.0;
  double stcl = 50.0;
  double stc_scale = 0.0;  // 0 = auto
  std::string cores;
  bool csv = false;
  // sweep-only knobs
  double stcl_min = 20.0;
  double stcl_max = 100.0;
  double step = 10.0;
  long long threads = 0;  // 0 = hardware concurrency
  // serve-only knobs
  std::string in_path = "-";
  std::string out_path = "-";
  std::string schedule_policy = "fifo";
  std::string dedup = "on";
  std::string summary_json_path;
  // serve observability artifacts (docs/OBSERVABILITY.md) — none of
  // these may change the results stream's bytes.
  std::string trace_path;         // --trace: Chrome traceEvents JSON
  std::string metrics_json_path;  // --metrics-json: registry snapshot
  bool metrics_table = false;     // --metrics: stderr metric table
  std::string cache_dir;  // serve + cache (docs/PERSIST.md)
  // gen-only knobs (docs/GEN.md)
  long long gen_count = 1000;
  long long gen_seed = 1;
  double gen_zipf = 1.5;
  double gen_dup = 0.0;
  std::string gen_order = "shuffled";
  double gen_mix_sweep = 0.7;
  double gen_mix_ptrace = 0.15;
  double gen_mix_chained = 0.15;
  double gen_mix_grid = 0.0;
  double gen_deadline_rate = 0.0;
};

/// Policy name -> SchedulePolicy; anything else is a usage error
/// (exit 2) with this exact message (pinned by the serve smoke docs).
dispatch::SchedulePolicy parse_schedule_policy(const std::string& name) {
  const auto policy = dispatch::schedule_policy_from_name(name);
  if (!policy) {
    throw InvalidArgument(
        "unknown schedule policy '" + name +
        "' (expected 'fifo', 'ljf', or 'edf')");
  }
  return *policy;
}

/// Order-pattern name -> OrderPattern; anything else is a usage error
/// (exit 2).
gen::OrderPattern parse_order_pattern(const std::string& name) {
  const auto order = gen::order_pattern_from_name(name);
  if (!order) {
    throw InvalidArgument(
        "unknown order pattern '" + name +
        "' (expected 'shuffled' or 'whale-last')");
  }
  return *order;
}

/// "on" | "off" -> bool; anything else is a usage error (exit 2).
bool parse_dedup(const std::string& value) {
  if (value == "on") return true;
  if (value == "off") return false;
  throw InvalidArgument("invalid --dedup value '" + value +
                        "' (expected 'on' or 'off')");
}

/// JSON numbers in a metrics snapshot are exact integers (<= 2^53), so
/// a double round-trips losslessly into this decimal string.
std::string metric_value(const JsonValue& value) {
  return std::to_string(
      static_cast<unsigned long long>(value.as_number()));
}

/// `serve --metrics` / `cache stats`: the registry snapshot as tables.
/// Counters get metric|value rows; histograms get one row per metric
/// with count + latency quantiles. `prefix` filters by metric name
/// ("" = everything); rows with zero events are skipped so the table
/// shows what this process actually did.
void print_metrics_tables(std::ostream& out, const std::string& prefix) {
  const JsonValue snapshot = obs::MetricsRegistry::instance().to_json();
  Table scalars({"metric", "value"});
  std::size_t scalar_rows = 0;
  if (const JsonValue* group = snapshot.find("counters")) {
    for (const auto& [name, value] : group->members()) {
      if (name.rfind(prefix, 0) != 0 || value.as_number() == 0.0) continue;
      scalars.add_row({name, metric_value(value)});
      ++scalar_rows;
    }
  }
  Table latencies({"metric", "count", "p50 [ns]", "p95 [ns]", "p99 [ns]",
                   "max [ns]"});
  std::size_t latency_rows = 0;
  if (const JsonValue* group = snapshot.find("histograms")) {
    for (const auto& [name, h] : group->members()) {
      if (name.rfind(prefix, 0) != 0) continue;
      const JsonValue* count = h.find("count");
      if (count == nullptr || count->as_number() == 0.0) continue;
      latencies.add_row({name, metric_value(*count),
                         metric_value(*h.find("p50")),
                         metric_value(*h.find("p95")),
                         metric_value(*h.find("p99")),
                         metric_value(*h.find("max"))});
      ++latency_rows;
    }
  }
  if (scalar_rows > 0) scalars.print(out);
  if (latency_rows > 0) latencies.print(out);
  if (scalar_rows == 0 && latency_rows == 0) {
    out << "(no metrics recorded)\n";
  }
}

void print_global_usage(std::ostream& out) {
  out << "usage: thermosched <command> [options]\n"
         "\n"
         "commands:\n"
         "  schedule  Run Algorithm 1, print the thermal-safe schedule\n"
         "            [--flp PATH --density D | --alpha] [--tl C] [--stcl S]\n"
         "            [--stc-scale X] [--csv]\n"
         "  simulate  Simulate one test session through the RC oracle\n"
         "            --cores a,b,c [--flp PATH --density D | --alpha] [--csv]\n"
         "  sweep     Algorithm 1 once per STCL value, across worker threads\n"
         "            [--stcl-min S] [--stcl-max S] [--step S] [--threads N]\n"
         "            [--flp PATH --density D | --alpha] [--tl C]\n"
         "            [--stc-scale X] [--csv]\n"
         "  serve     Stream JSONL scenario requests -> JSONL results\n"
         "            (schema: docs/SERVE.md; byte-deterministic for any\n"
         "            thread count, policy, and dedup setting)\n"
         "            [--in PATH|-] [--out PATH|-] [--threads N]\n"
         "            [--schedule-policy fifo|ljf|edf]\n"
         "            [--dedup on|off] [--summary-json PATH]\n"
         "            [--cache-dir PATH] [--trace PATH]\n"
         "            [--metrics-json PATH] [--metrics]\n"
         "  cache     Inspect/maintain a --cache-dir result cache\n"
         "            (docs/PERSIST.md): stats | verify | compact\n"
         "            --cache-dir PATH\n"
         "  gen       Emit a deterministic JSONL request stream for serve\n"
         "            (byte-identical for identical flags; docs/GEN.md)\n"
         "            [--count N] [--seed S] [--zipf Z] [--dup R]\n"
         "            [--order shuffled|whale-last] [--mix-sweep W]\n"
         "            [--mix-ptrace W] [--mix-chained W] [--mix-grid W]\n"
         "            [--deadline-rate R] [--out PATH|-]\n"
         "  info      Floorplan statistics\n"
         "            [--flp PATH --density D | --alpha] [--csv]\n"
         "\n"
         "`thermosched <command> --help` lists that command's options.\n"
         "\n"
         "serve scheduling (docs/SERVE.md \"Scheduling policy\"):\n"
         "--schedule-policy orders execution starts — 'fifo' (default,\n"
         "input order), 'ljf' (longest-job-first; cuts makespan on\n"
         "skewed batches), or 'edf' (earliest deadline_s first).\n"
         "--dedup ('on' default) memoizes result records by request\n"
         "content so duplicate requests execute once. Neither changes\n"
         "the output bytes.\n"
         "--summary-json writes per-batch execution stats (makespan,\n"
         "tail latency, memo hit rate, per-request timings) to PATH.\n"
         "--trace records per-thread spans for the batch and writes\n"
         "Chrome traceEvents JSON to PATH; --metrics-json writes the\n"
         "process-wide counter/histogram snapshot; --metrics prints it\n"
         "as stderr tables. Observability never changes the output\n"
         "bytes (docs/OBSERVABILITY.md).\n"
         "--cache-dir persists result records to a crash-safe on-disk\n"
         "store keyed by request content: a restarted server answers\n"
         "previously computed requests from disk without executing them\n"
         "(byte-identically; docs/PERSIST.md). Requires dedup on.\n"
         "`thermosched cache verify --cache-dir PATH` exits 1 when any\n"
         "record is damaged; undamaged records are unaffected.\n"
         "\n"
         "exit codes: 0 success; 1 runtime error (bad input file, scheduler\n"
         "failure, unwritable --out/--summary-json path); 2 usage error\n"
         "(unknown command/flag, malformed value — including an unknown\n"
         "--schedule-policy or --dedup value).\n";
}

/// The SoC the --alpha/--flp/--density flags name, as a serve request
/// would name it: --flp without --alpha loads that file, anything else
/// is the bundled Alpha SoC.
scenario::SocSelector soc_selector(const CommonArgs& args) {
  scenario::SocSelector selector;
  if (!args.alpha && !args.flp_path.empty()) {
    selector.kind = scenario::SocKind::kFlp;
    selector.flp_path = args.flp_path;
    selector.flp_density = args.density;
  }
  return selector;
}

core::SocSpec build_soc(const CommonArgs& args) {
  return scenario::ScenarioRunner::build_soc(soc_selector(args));
}

double stc_scale_for(const CommonArgs& args) {
  if (args.stc_scale > 0.0) return args.stc_scale;
  return scenario::auto_stc_scale(soc_selector(args).kind);
}

int cmd_schedule(const CommonArgs& args) {
  const core::SocSpec soc = build_soc(args);
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  core::ThermalSchedulerOptions options;
  options.temperature_limit = args.tl;
  options.stc_limit = args.stcl;
  options.model.stc_scale = stc_scale_for(args);
  options.solo_policy = core::SoloViolationPolicy::kRaiseLimit;
  const core::ThermalAwareScheduler scheduler(options);
  const core::ScheduleResult result = scheduler.generate(soc, analyzer);

  for (const std::string& note : result.notes) std::cerr << "note: " << note << '\n';
  Table table({"session", "cores", "length [s]", "max temp [C]"});
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    table.add_row({"TS" + std::to_string(i + 1),
                   result.outcomes[i].session.to_string(soc),
                   format_double(result.outcomes[i].length, 2),
                   format_double(result.outcomes[i].max_temperature, 2)});
  }
  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "length=" << result.schedule_length
            << "s effort=" << result.simulation_effort
            << "s max=" << format_double(result.max_temperature, 2)
            << "C (TL " << scheduler.effective_temperature_limit() << "C)\n";
  return kExitOk;
}

int cmd_simulate(const CommonArgs& args) {
  const core::SocSpec soc = build_soc(args);
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  core::TestSession session;
  for (const std::string& raw : split(args.cores, ',')) {
    const std::string name{trim(raw)};
    const auto index = soc.flp.index_of(name);
    if (!index) throw InvalidArgument("no core named '" + name + "'");
    session.cores.push_back(*index);
  }
  const thermal::SessionSimulation sim =
      analyzer.simulate_session(session.power_map(soc), session.length(soc));

  Table table({"core", "power [W]", "peak temp [C]"});
  for (std::size_t i = 0; i < soc.core_count(); ++i) {
    table.add_row({soc.flp.block(i).name,
                   format_double(session.contains(i) ? soc.tests[i].power : 0.0, 1),
                   format_double(sim.peak_temperature[i], 2)});
  }
  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "\nmax " << format_double(sim.max_temperature, 2) << " C in '"
            << soc.flp.block(sim.hottest_block).name << "'\n\n"
            << viz::ascii_block_map(soc.flp, sim.peak_temperature, 56);
  return kExitOk;
}

int cmd_sweep(const CommonArgs& args) {
  const std::vector<double> stcls =
      core::stcl_range(args.stcl_min, args.stcl_max, args.step);
  const core::SocSpec soc = build_soc(args);
  // One prepared model: every per-STCL point shares its RC network
  // (steppers keyed by it in the solver cache, so each is factored once
  // for the whole sweep no matter how many threads run) and its session
  // model.
  const core::PreparedModel model(soc);

  core::StclSweepConfig config;
  config.threads = static_cast<std::size_t>(args.threads);
  config.scheduler.temperature_limit = args.tl;
  config.scheduler.model.stc_scale = stc_scale_for(args);
  config.scheduler.solo_policy = core::SoloViolationPolicy::kRaiseLimit;
  const std::vector<core::StclSweepPoint> points =
      core::sweep_stcl(core::PreparedSoc{soc, model}, stcls, config);

  Table table({"STCL", "length [s]", "effort [s]", "sessions", "max temp [C]",
               "discards"});
  for (const core::StclSweepPoint& point : points) {
    table.add_row({format_double(point.stcl, 0),
                   format_double(point.schedule_length, 1),
                   format_double(point.simulation_effort, 1),
                   std::to_string(point.sessions),
                   format_double(point.max_temperature, 2),
                   std::to_string(point.discarded_sessions)});
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  // Under kRaiseLimit the scheduler may enforce a higher TL than asked
  // for; report it like cmd_schedule does or the table rows would
  // appear to violate the printed limit.
  double effective_tl = args.tl;
  for (const core::StclSweepPoint& point : points) {
    effective_tl = std::max(effective_tl, point.effective_temperature_limit);
  }
  // Every factorization (G's and the steppers') is one thermal.factor_ns
  // sample; each stepped session and each unit-step response fill looks
  // its stepper up once (docs/SOLVERS.md "Transient response table").
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  std::cout << "TL = " << args.tl << " C (effective "
            << format_double(effective_tl, 2) << " C), " << stcls.size()
            << " STCL values; "
            << registry.histogram("thermal.factor_ns").count()
            << " factorizations, "
            << registry.counter("thermal.solver_cache.hits").value()
            << " stepper reuses\n";
  return kExitOk;
}

/// Writes `text` and a newline to `path`, a serve artifact of the given
/// kind ("summary", "trace", "metrics"). A file that cannot be opened,
/// or a full disk, is a runtime error rather than a truncated artifact.
void write_artifact(const std::string& path, const std::string& kind,
                    const std::string& text) {
  std::ofstream file(path);
  if (!file) {
    throw Error("cannot open " + kind + " file '" + path + "' for writing");
  }
  file << text << '\n';
  file.flush();
  if (!file.good()) {
    throw Error("failed writing " + kind + " to '" + path + "'");
  }
}

int cmd_serve(const CommonArgs& args) {
  std::ifstream in_file;
  if (args.in_path != "-") {
    in_file.open(args.in_path);
    if (!in_file) {
      throw InvalidArgument("cannot open requests file '" + args.in_path + "'");
    }
  }
  std::ofstream out_file;
  if (args.out_path != "-") {
    out_file.open(args.out_path);
    if (!out_file) {
      throw InvalidArgument("cannot open results file '" + args.out_path +
                            "' for writing");
    }
  }
  std::istream& in = args.in_path == "-" ? std::cin : in_file;
  std::ostream& out = args.out_path == "-" ? std::cout : out_file;

  scenario::ScenarioRunner runner;
  scenario::ServeOptions options;
  options.threads = static_cast<std::size_t>(args.threads);
  options.policy = parse_schedule_policy(args.schedule_policy);
  options.dedup = parse_dedup(args.dedup);
  std::unique_ptr<dispatch::DiskResultMemo> disk_memo;
  if (!args.cache_dir.empty()) {
    disk_memo = std::make_unique<dispatch::DiskResultMemo>(args.cache_dir);
    options.disk_memo = disk_memo.get();
    if (!options.dedup) {
      std::cerr << "note: --cache-dir has no effect with --dedup off "
                   "(results are keyed by request content)\n";
    }
  }

  // --trace records per-thread spans for exactly the batch window; the
  // recorder is started before the first request is parsed and stopped
  // before any artifact is written, so the trace never observes its own
  // export (docs/OBSERVABILITY.md).
  obs::TraceRecorder& trace = obs::TraceRecorder::instance();
  const bool tracing = !args.trace_path.empty();
  if (tracing) trace.start();

  const scenario::ServeSummary summary =
      scenario::serve_stream(in, out, runner, options);
  if (tracing) trace.stop();

  // A full disk or closed pipe must be a runtime error, not a silent
  // success with a truncated results file.
  out.flush();
  if (!out.good()) {
    throw Error("failed writing results to '" + args.out_path + "'");
  }

  // Per-batch execution stats (makespan, tail latency, memo hit rate,
  // per-request timings) are summary-only — they may never enter the
  // deterministic results stream, so they get their own file. So do the
  // observability artifacts.
  if (!args.summary_json_path.empty()) {
    write_artifact(args.summary_json_path, "summary",
                   scenario::serve_summary_to_json(summary).dump());
  }
  if (tracing) {
    write_artifact(args.trace_path, "trace", trace.snapshot_json().dump());
  }
  if (!args.metrics_json_path.empty()) {
    write_artifact(args.metrics_json_path, "metrics",
                   obs::MetricsRegistry::instance().to_json().dump());
  }

  // Summary goes to stderr: with --out -, stdout is the results stream
  // and must stay pure (and byte-identical across thread counts; wall
  // time may not appear in it).
  const double rate = summary.wall_seconds > 0.0
                          ? static_cast<double>(summary.requests) /
                                summary.wall_seconds
                          : 0.0;
  std::cerr << "served " << summary.requests << " requests ("
            << summary.succeeded << " ok, " << summary.failed << " failed) in "
            << format_double(summary.wall_seconds, 3) << " s on "
            << summary.threads << " threads (" << format_double(rate, 1)
            << " req/s, policy "
            << dispatch::schedule_policy_name(summary.policy) << ", dedup "
            << (summary.dedup ? "on" : "off") << "); memo hits "
            << summary.memo_hits << "/" << summary.requests
            << "; models built " << summary.runner.model_misses
            << ", reused " << summary.runner.model_hits << "; socs built "
            << summary.runner.soc_builds;
  if (summary.disk_cache_enabled) {
    std::cerr << "; disk cache: " << summary.disk_hits << " hits, "
              << summary.disk_records << " records in "
              << summary.disk_segments << " segments";
  }
  if (summary.deadline_requests > 0) {
    std::cerr << "; deadlines: " << summary.deadline_met << "/"
              << summary.deadline_requests << " met";
  }
  std::cerr << '\n';
  // --metrics: the whole registry snapshot as stderr tables, same
  // channel as the one-line summary (stdout stays the results stream).
  if (args.metrics_table) print_metrics_tables(std::cerr, "");
  if (args.out_path == "-") return kExitOk;
  // A short confirmation so the smoke harness (non-empty stdout) and
  // humans both see where the records went.
  std::cout << "wrote " << summary.requests << " result records to "
            << args.out_path << '\n';
  return kExitOk;
}

int cmd_gen(const CommonArgs& args) {
  gen::GenConfig config;
  config.seed = static_cast<std::uint64_t>(args.gen_seed);
  config.count = static_cast<std::size_t>(args.gen_count);
  config.zipf_skew = args.gen_zipf;
  config.dup_rate = args.gen_dup;
  config.mix.sweep = args.gen_mix_sweep;
  config.mix.ptrace = args.gen_mix_ptrace;
  config.mix.chained = args.gen_mix_chained;
  config.mix.grid = args.gen_mix_grid;
  config.deadline_rate = args.gen_deadline_rate;
  config.order = parse_order_pattern(args.gen_order);

  std::ofstream out_file;
  if (args.out_path != "-") {
    out_file.open(args.out_path);
    if (!out_file) {
      throw InvalidArgument("cannot open requests file '" + args.out_path +
                            "' for writing");
    }
  }
  std::ostream& out = args.out_path == "-" ? std::cout : out_file;

  const gen::GeneratedStream stream = gen::generate_stream(config);
  gen::write_stream(stream, out);
  // A full disk or closed pipe must be a runtime error, not a silently
  // truncated stream (same rule as serve's results file).
  out.flush();
  if (!out.good()) {
    throw Error("failed writing requests to '" + args.out_path + "'");
  }

  // Stats go to stderr: with --out -, stdout is the request stream and
  // must stay pure.
  std::cerr << "generated " << stream.stats.count << " requests ("
            << stream.stats.fresh << " fresh, " << stream.stats.duplicates
            << " duplicates; " << stream.stats.sweep << " stcl_sweep, "
            << stream.stats.ptrace << " ptrace, " << stream.stats.chained
            << " chained, " << stream.stats.grid << " grid_steady; ";
  if (config.deadline_rate > 0.0) {
    std::cerr << stream.stats.deadlined << " deadlined; ";
  }
  std::cerr << "order " << gen::order_pattern_name(config.order)
            << ", seed " << config.seed << ")\n";
  if (args.out_path == "-") return kExitOk;
  std::cout << "wrote " << stream.stats.count << " request lines to "
            << args.out_path << '\n';
  return kExitOk;
}

int cmd_cache(const std::string& action, const CommonArgs& args) {
  // Inspection never creates or destroys data: a missing directory is an
  // error, and a schema mismatch is reported instead of wiped (only the
  // serving path — which owns the cache — may invalidate it).
  persist::StoreOptions store_options;
  store_options.schema_revision = dispatch::kResultSchemaRevision;
  store_options.schema_policy = persist::SchemaPolicy::kFailOnMismatch;
  store_options.create_if_missing = false;
  persist::SegmentStore store(args.cache_dir, store_options);

  if (action == "stats") {
    const persist::SegmentStore::Stats stats = store.stats();
    Table table({"metric", "value"});
    table.add_row({"records", std::to_string(stats.records)});
    table.add_row({"segments", std::to_string(stats.segments)});
    table.add_row({"disk bytes", std::to_string(stats.disk_bytes)});
    table.add_row({"schema revision", std::to_string(stats.schema_revision)});
    table.add_row({"damaged frames", std::to_string(stats.damaged_at_open)});
    if (args.csv) table.print_csv(std::cout);
    else table.print(std::cout);
    // The persist latency histograms this process recorded — for
    // `cache stats` that is the recovery scan that just opened the
    // store (docs/OBSERVABILITY.md "Metric catalogue").
    if (!args.csv) print_metrics_tables(std::cout, "persist.");
    return kExitOk;
  }

  if (action == "verify") {
    const persist::SegmentStore::VerifyReport report = store.verify();
    for (const persist::SegmentStore::Damage& damage : report.damage) {
      std::cout << "damage: " << damage.segment << " offset " << damage.offset
                << ": " << damage.reason << '\n';
    }
    std::cout << "verified " << report.segments << " segments: "
              << report.valid_records << " valid records, "
              << report.damage.size() << " damaged\n";
    // Damage is a runtime finding, not a usage mistake — exit 1 so
    // scripts can gate on cache health.
    return report.clean() ? kExitOk : kExitRuntimeError;
  }

  const persist::SegmentStore::Stats before = store.stats();
  const std::size_t carried = store.compact();
  const persist::SegmentStore::Stats after = store.stats();
  std::cout << "compacted " << before.segments << " segments ("
            << before.disk_bytes << " bytes) into 1 (" << after.disk_bytes
            << " bytes), " << carried << " records kept\n";
  return kExitOk;
}

int cmd_info(const CommonArgs& args) {
  const core::SocSpec soc = build_soc(args);
  std::cout << "SoC '" << soc.name << "': " << soc.core_count()
            << " cores, die " << soc.flp.chip_width() * 1e3 << " x "
            << soc.flp.chip_height() * 1e3 << " mm, coverage "
            << format_double(soc.flp.validate().coverage * 100.0, 1) << "%\n";
  Table table({"core", "area [mm2]", "test power [W]",
               "density [W/mm2]", "neighbours", "boundary [mm]"});
  for (std::size_t i = 0; i < soc.core_count(); ++i) {
    table.add_row({soc.flp.block(i).name,
                   format_double(soc.flp.block(i).area() * 1e6, 2),
                   format_double(soc.tests[i].power, 1),
                   format_double(soc.power_density(i) * 1e-6, 2),
                   std::to_string(soc.flp.neighbours(i).size()),
                   format_double(soc.flp.boundary_exposure(i) * 1e3, 1)});
  }
  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_global_usage(std::cerr);
    return kExitUsageError;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_global_usage(std::cout);
    return kExitOk;
  }

  const bool is_schedule = command == "schedule";
  const bool is_simulate = command == "simulate";
  const bool is_sweep = command == "sweep";
  const bool is_serve = command == "serve";
  const bool is_gen = command == "gen";
  const bool is_cache = command == "cache";
  const bool is_info = command == "info";
  if (!is_schedule && !is_simulate && !is_sweep && !is_serve && !is_gen &&
      !is_cache && !is_info) {
    std::cerr << "unknown command '" << command << "'\n\n";
    print_global_usage(std::cerr);
    return kExitUsageError;
  }

  // `cache` takes an action word before its flags; validate it up front
  // so `thermosched cache frobnicate` is a usage error, not a silent
  // default.
  std::string cache_action;
  if (is_cache) {
    if (argc < 3) {
      std::cerr << "error: cache requires an action: stats, verify, or "
                   "compact\n";
      return kExitUsageError;
    }
    cache_action = argv[2];
    if (cache_action != "stats" && cache_action != "verify" &&
        cache_action != "compact" && cache_action != "--help" &&
        cache_action != "-h") {
      std::cerr << "error: unknown cache action '" << cache_action
                << "' (expected stats, verify, or compact)\n";
      return kExitUsageError;
    }
  }

  // Each command registers exactly the flags it understands, so
  // `thermosched <command> --help` is precise and a flag on the wrong
  // command is a usage error instead of a silent no-op.
  CommonArgs args;
  CliParser cli("thermosched " + command, "Thermal-safe SoC test scheduling");
  bool alpha_flag = false;
  if (!is_serve && !is_gen && !is_cache) {
    cli.add_string("flp", "HotSpot .flp floorplan file", &args.flp_path);
    cli.add_double("density", "Uniform test power density for --flp [W/m^2]",
                   &args.density);
    cli.add_flag("alpha", "Use the bundled Alpha-15 SoC (default)", &alpha_flag);
    cli.add_flag("csv", "CSV output", &args.csv);
  }
  if (is_schedule || is_sweep) {
    cli.add_double("tl", "Temperature limit TL [deg C]", &args.tl);
    cli.add_double("stc-scale", "STC normalisation (0 = auto)", &args.stc_scale);
  }
  if (is_schedule) {
    cli.add_double("stcl", "Session thermal characteristic limit", &args.stcl);
  }
  if (is_simulate) {
    cli.add_string("cores", "Comma-separated cores to test concurrently",
                   &args.cores);
  }
  if (is_sweep) {
    cli.add_double("stcl-min", "Smallest STCL of the sweep", &args.stcl_min);
    cli.add_double("stcl-max", "Largest STCL of the sweep", &args.stcl_max);
    cli.add_double("step", "STCL increment", &args.step);
  }
  if (is_serve) {
    cli.add_string("in", "JSONL requests file, - = stdin", &args.in_path);
    cli.add_string("out", "JSONL results file, - = stdout", &args.out_path);
    cli.add_string("schedule-policy",
                   "Execution-start order: fifo (input order), ljf "
                   "(longest-job-first), or edf (earliest-deadline-first); "
                   "output bytes are identical either way",
                   &args.schedule_policy);
    cli.add_string("dedup",
                   "Memoize results by request content, on or off "
                   "(duplicate requests execute once; output unchanged)",
                   &args.dedup);
    cli.add_string("summary-json",
                   "Write per-batch execution stats (makespan, tail "
                   "latency, memo hit rate, per-request timings) to PATH",
                   &args.summary_json_path);
    cli.add_string("trace",
                   "Record per-thread spans for the batch and write "
                   "Chrome traceEvents JSON to PATH (load in "
                   "chrome://tracing or Perfetto; output bytes "
                   "unchanged — docs/OBSERVABILITY.md)",
                   &args.trace_path);
    cli.add_string("metrics-json",
                   "Write the process-wide metrics snapshot (counters + "
                   "latency histograms) to PATH after the batch",
                   &args.metrics_json_path);
    cli.add_flag("metrics",
                 "Print the metrics snapshot as stderr tables after the "
                 "batch summary",
                 &args.metrics_table);
  }
  if (is_serve || is_cache) {
    cli.add_string("cache-dir",
                   "Directory of the persistent result cache "
                   "(docs/PERSIST.md); serve: created on first use, "
                   "results survive restarts",
                   &args.cache_dir);
  }
  if (is_cache) {
    cli.add_flag("csv", "CSV output (stats)", &args.csv);
  }
  if (is_gen) {
    cli.add_int("count", "Request lines to emit (duplicates included)",
                &args.gen_count);
    cli.add_int("seed", "Stream seed; identical flags + seed = identical "
                        "bytes",
                &args.gen_seed);
    cli.add_double("zipf",
                   "Size skew: Zipf exponent over the synthetic core "
                   "ladder (0 = uniform)",
                   &args.gen_zipf);
    cli.add_double("dup",
                   "Duplicate-line probability in [0, 1) (byte-identical "
                   "copies, what serve's --dedup memoizes)",
                   &args.gen_dup);
    cli.add_string("order",
                   "Arrival order: shuffled or whale-last",
                   &args.gen_order);
    cli.add_double("mix-sweep", "Relative weight of kind stcl_sweep",
                   &args.gen_mix_sweep);
    cli.add_double("mix-ptrace", "Relative weight of kind ptrace",
                   &args.gen_mix_ptrace);
    cli.add_double("mix-chained", "Relative weight of kind chained",
                   &args.gen_mix_chained);
    cli.add_double("mix-grid", "Relative weight of kind grid_steady",
                   &args.gen_mix_grid);
    cli.add_double("deadline-rate",
                   "Probability in [0, 1] that a fresh request carries a "
                   "deadline_s (half tight / half generous; docs/GEN.md)",
                   &args.gen_deadline_rate);
    cli.add_string("out", "JSONL requests file, - = stdout", &args.out_path);
  }
  if (is_sweep || is_serve) {
    cli.add_int("threads", "Worker threads, 0 = all hardware threads",
                &args.threads);
  }

  // For `cache <action>` the flags start after the action word; for
  // `cache --help` the help flag itself must reach the parser.
  const int arg_offset =
      is_cache && cache_action != "--help" && cache_action != "-h" ? 2 : 1;
  try {
    if (!cli.parse(argc - arg_offset, argv + arg_offset)) {
      return kExitOk;  // --help
    }
    // A malformed policy/dedup value is a usage error like any other
    // malformed flag value, so validate it before the command runs.
    if (is_serve) {
      parse_schedule_policy(args.schedule_policy);
      parse_dedup(args.dedup);
    }
    // A missing required flag is a usage error too.
    if (is_simulate && args.cores.empty()) {
      throw InvalidArgument("simulate requires --cores a,b,c");
    }
    if (is_cache && args.cache_dir.empty()) {
      throw InvalidArgument("cache " + cache_action +
                            " requires --cache-dir PATH");
    }
    if ((is_sweep || is_serve) && args.threads < 0) {
      throw InvalidArgument("--threads must be >= 0");
    }
    // Numeric flags take the bounds and wording of the request fields
    // they mirror (scenario/request.cpp), so a bad value is a usage
    // error here just as it is an ok:false record in serve.
    const auto require_positive = [](double value, const char* flag) {
      if (!std::isfinite(value) || value <= 0.0) {
        throw InvalidArgument(std::string(flag) + " must be finite and > 0");
      }
    };
    if (!is_serve && !is_gen && !is_cache) {
      require_positive(args.density, "--density");
    }
    if (is_schedule || is_sweep) {
      require_positive(args.tl, "--tl");
      if (!std::isfinite(args.stc_scale) || args.stc_scale < 0.0) {
        throw InvalidArgument(
            "--stc-scale must be finite and >= 0 (0 = auto)");
      }
    }
    if (is_schedule) require_positive(args.stcl, "--stcl");
    if (is_sweep) {
      require_positive(args.stcl_min, "--stcl-min");
      require_positive(args.stcl_max, "--stcl-max");
      require_positive(args.step, "--step");
      if (args.stcl_max < args.stcl_min) {
        throw InvalidArgument("--stcl-max must be >= --stcl-min");
      }
    }
    if (is_gen) {
      parse_order_pattern(args.gen_order);
      if (args.gen_count < 1) {
        throw InvalidArgument("--count must be >= 1");
      }
      if (args.gen_seed < 0) {
        throw InvalidArgument("--seed must be >= 0");
      }
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitUsageError;
  }
  args.alpha = alpha_flag;

  try {
    if (is_schedule) return cmd_schedule(args);
    if (is_simulate) return cmd_simulate(args);
    if (is_sweep) return cmd_sweep(args);
    if (is_serve) return cmd_serve(args);
    if (is_gen) return cmd_gen(args);
    if (is_cache) return cmd_cache(cache_action, args);
    return cmd_info(args);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitRuntimeError;
  }
}
