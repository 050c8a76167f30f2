// perfbench — the repository benchmark program (README.md beside this file).
//
// One process runs one workload. It derives the workload's inputs from
// --seed, serves them in-process through the public library API
// (gen::generate_stream → scenario::serve_stream), checks every output
// outside the timed window, and prints one identity line and then one
// JSON result object as the last line of stdout.
//
//   perfbench --workload serve_cold --seed 7 --seconds 20 --trace 0
//
// A run serves several independent inputs ("parts", each from its own
// sub-seed of --seed), each from a fresh state: one input alone makes a
// run's cost depend on the luck of one draw (how many 502-core requests
// one stream holds, how hard one synthetic SoC is), which would swamp
// every change worth measuring.
//
// --trace 0 times untraced serves and reports the end-to-end metrics,
// with times scaled to a nominal host speed (see "Host speed reference").
// --trace 1 reports the per-layer metrics for part 0: it replays that
// input single-threaded through each layer's public entry point,
// wrapping every call in a span owned by this file (nothing inside the
// library is instrumented for the benchmark), and reads factorization
// and cache counts from the obs registry as deltas around the replay.
//
// Exit status: 0 when every output check and state assertion held,
// 1 when one failed (the result line then says "correct": false),
// 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/safety_checker.hpp"
#include "core/session_model.hpp"
#include "core/thermal_scheduler.hpp"
#include "dispatch/disk_result_memo.hpp"
#include "dispatch/result_memo.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "scenario/request.hpp"
#include "scenario/runner.hpp"
#include "scenario/serve.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/solver_cache.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace {

using namespace thermo;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kServeCold, kServeReplay, kAlg1Scale };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;
  std::string work_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// What one workload serves and how. The sizes are the benchmark's
/// definition: changing one makes results incomparable with earlier runs.
struct Plan {
  Kind kind = Kind::kServeCold;
  std::string name;
  std::uint64_t seed = 1;
  std::size_t threads = 4;
  std::size_t parts = 1;           ///< independent inputs per run
  gen::GenConfig gen;              ///< serve workloads (seed set per part)
  scenario::ScenarioRequest alg1;  ///< alg1_scale (SoC seed set per part)
  std::string work_dir;
};

std::optional<Plan> make_plan(const Args& args) {
  Plan plan;
  plan.name = args.workload;
  plan.seed = args.seed;
  plan.work_dir = args.work_dir;
  if (args.workload == "serve_cold") {
    // The end-to-end serve path: default kind mix, Zipf 1.5 over the
    // default core ladder, shuffled, 30% verbatim duplicates.
    plan.kind = Kind::kServeCold;
    plan.parts = args.quick ? 2 : 8;
    plan.gen.count = args.quick ? 400 : 8000;
    plan.gen.dup_rate = 0.3;
  } else if (args.workload == "serve_replay") {
    // The warm restart of `serve --cache-dir`: ~10% fresh requests, every
    // one answered from disk, so ingest and serialization dominate.
    plan.kind = Kind::kServeReplay;
    plan.parts = args.quick ? 2 : 6;
    plan.gen.count = args.quick ? 2000 : 40000;
    plan.gen.dup_rate = 0.9;
  } else if (args.workload == "alg1_scale") {
    // Algorithm 1 at scale: synthetic SoCs where TL binds, so the
    // reweight loop runs; the steady oracle keeps construction dominant.
    plan.kind = Kind::kAlg1Scale;
    plan.threads = 1;
    plan.parts = args.quick ? 2 : 48;
    scenario::ScenarioRequest& r = plan.alg1;
    r.kind = scenario::RequestKind::kStclSweep;
    r.soc.kind = scenario::SocKind::kSynthetic;
    r.soc.synthetic.cores = args.quick ? 200 : 1000;
    r.soc.power_scale = 3.0;
    r.stc_scale = 10.0;
    r.tl = 155.0;
    r.stcl.min = r.stcl.max = 50.0;
    r.weight_factor = 1.1;
    r.solver.transient = false;
  } else {
    return std::nullopt;
  }
  return plan;
}

/// Reproducible sub-seed of part `part`, kept below 2^40 so it survives
/// the JSON number round trip of a request's synthetic seed.
std::uint64_t part_seed(std::uint64_t seed, std::size_t part) {
  return fnv1a64(std::to_string(seed) + ":" + std::to_string(part)) &
         ((std::uint64_t{1} << 40) - 1);
}

/// One part: the request bytes the program sees, and what the benchmark
/// expects back for them.
struct Input {
  Kind kind = Kind::kServeCold;
  std::size_t part = 0;
  gen::GenConfig gen;
  scenario::ScenarioRequest alg1;
  std::string cache_dir;          ///< serve_replay's result cache
  /// '\n'-terminated JSONL; released in timed runs, whose set-ups
  /// regenerate it, so one part's bytes do not inflate another's peak RSS.
  std::string bytes;
  gen::GenStats stats;            ///< serve workloads
  std::uint64_t digest = 0;       ///< FNV-1a 64 of the bytes
  std::vector<std::string> ids;   ///< expected record id per line
  /// Line i is not a verbatim copy of an earlier line.
  std::vector<bool> first_occurrence;
};

/// Generates a part's request bytes — part of every timed set-up, since
/// `thermosched gen` is program code too.
std::string generate_bytes(const Input& input, gen::GenStats* stats) {
  std::string bytes;
  if (input.kind == Kind::kAlg1Scale) {
    bytes = scenario::to_json_line(input.alg1);
    bytes += '\n';
    return bytes;
  }
  const gen::GeneratedStream stream = gen::generate_stream(input.gen);
  std::size_t total = 0;
  for (const std::string& line : stream.lines) total += line.size() + 1;
  bytes.reserve(total);
  for (const std::string& line : stream.lines) {
    bytes += line;
    bytes += '\n';
  }
  if (stats != nullptr) *stats = stream.stats;
  return bytes;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

Input make_input(const Plan& plan, std::size_t part) {
  Input input;
  input.kind = plan.kind;
  input.part = part;
  const std::uint64_t seed = part_seed(plan.seed, part);
  input.gen = plan.gen;
  input.gen.seed = seed;
  input.alg1 = plan.alg1;
  input.alg1.id = "alg1-" + std::to_string(part);
  input.alg1.soc.synthetic.seed = seed;
  if (plan.kind == Kind::kServeReplay) {
    input.cache_dir = plan.work_dir + "/replay-cache-" + std::to_string(part);
  }
  input.bytes = generate_bytes(input, &input.stats);
  input.digest = fnv1a64(input.bytes);
  std::set<std::string_view> seen;
  for (const std::string_view line : split_lines(input.bytes)) {
    input.ids.push_back(scenario::parse_request_line(line).id);
    input.first_occurrence.push_back(seen.insert(line).second);
  }
  return input;
}

// ---------------------------------------------------------------------------
// Checks

/// Output-check and state-assertion failures. `failed` counts requests
/// whose record failed a check, plus one per failed state assertion.
struct Checks {
  std::size_t failed = 0;
  std::vector<std::string> messages;

  void fail(std::size_t count, const std::string& message) {
    failed += count;
    if (messages.size() < 20) messages.push_back(message);
  }
  void require(bool ok, const std::string& message) {
    if (!ok) fail(1, message);
  }
};

/// Records that are missing, extra, out of order, or not ok:true.
/// Records are canonically serialized, so the id and the ok flag are a
/// fixed prefix of each line.
std::size_t count_bad_records(std::string_view output, const Input& input) {
  const std::vector<std::string_view> lines = split_lines(output);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < input.ids.size(); ++i) {
    if (i >= lines.size()) {
      bad += input.ids.size() - i;
      break;
    }
    const std::string prefix =
        "{\"id\":" + JsonValue::string(input.ids[i]).dump() + ",\"ok\":true,";
    if (!lines[i].starts_with(prefix)) ++bad;
  }
  if (lines.size() > input.ids.size()) bad += lines.size() - input.ids.size();
  return bad;
}

/// Checks an output against its part's reference digest; the first
/// output seen for a part is checked record by record and becomes the
/// reference. Returns true when the output became the reference.
bool check_output(std::string_view output, const Input& input,
                  std::optional<std::uint64_t>& reference, Checks& checks,
                  const std::string& what) {
  const std::uint64_t digest = fnv1a64(output);
  if (!reference) {
    const std::size_t bad = count_bad_records(output, input);
    if (bad > 0) {
      checks.fail(bad, what + ": " + std::to_string(bad) +
                           " records missing, out of order, or not ok:true");
    }
    reference = digest;
    return true;
  }
  if (digest != *reference) {
    checks.fail(std::max<std::size_t>(1, count_bad_records(output, input)),
                what + ": output bytes differ from the part's first output");
  }
  return false;
}

/// The paper's quality and cost numbers, summed over records: schedule
/// length (sweep points and chained schedules) and simulated seconds.
/// Exact: a pure function of the record bytes.
struct RecordTotals {
  double schedule_length = 0.0;
  double simulation_effort = 0.0;
  std::size_t sessions = 0;
  std::size_t discarded = 0;
  std::size_t prepass_solves = 0;  ///< one solo simulation per core per point
};

double number_at(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

void add_record(std::string_view line, RecordTotals& totals) {
  const JsonValue record = parse_json(line);
  totals.simulation_effort += number_at(record, "simulation_effort");
  if (const JsonValue* points = record.find("points")) {
    for (const JsonValue& point : points->items()) {
      totals.schedule_length += number_at(point, "schedule_length");
      totals.sessions += static_cast<std::size_t>(number_at(point, "sessions"));
      totals.discarded +=
          static_cast<std::size_t>(number_at(point, "discarded_sessions"));
      totals.prepass_solves +=
          static_cast<std::size_t>(number_at(record, "cores"));
    }
  }
  if (const JsonValue* schedule = record.find("schedule")) {
    totals.schedule_length += number_at(*schedule, "length");
  }
}

/// Totals over the records of distinct request lines: a duplicate line
/// repeats its original's record, and counting it again would let the
/// stream's duplicate draw, not the schedules, dominate the sum.
void add_distinct_records(std::string_view output, const Input& input,
                          RecordTotals& totals) {
  const std::vector<std::string_view> records = split_lines(output);
  for (std::size_t i = 0; i < records.size() && i < input.ids.size(); ++i) {
    if (input.first_occurrence[i]) add_record(records[i], totals);
  }
}

// ---------------------------------------------------------------------------
// Obs registry deltas

/// Counters by name, histograms as "<name>.count" / "<name>.sum", read
/// from the registry's JSON snapshot so a renamed or removed metric reads
/// as 0 instead of breaking the build.
using ObsSnapshot = std::map<std::string, double, std::less<>>;

ObsSnapshot obs_snapshot() {
  const JsonValue json = obs::MetricsRegistry::instance().to_json();
  ObsSnapshot snapshot;
  if (const JsonValue* counters = json.find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      snapshot[name] = value.as_number();
    }
  }
  if (const JsonValue* histograms = json.find("histograms")) {
    for (const auto& [name, value] : histograms->members()) {
      snapshot[name + ".count"] = number_at(value, "count");
      snapshot[name + ".sum"] = number_at(value, "sum");
    }
  }
  return snapshot;
}

double obs_delta(const ObsSnapshot& before, const ObsSnapshot& after,
                 std::string_view key) {
  const auto get = [&](const ObsSnapshot& s) {
    const auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

// ---------------------------------------------------------------------------
// Serving from a fresh process state

dispatch::DiskResultMemo::Options disk_options(std::size_t lines) {
  // The memory tier holds the whole stream, so every fresh request is
  // read from disk exactly once and the disk-get count is exact.
  dispatch::DiskResultMemo::Options options;
  options.memory_capacity = std::max<std::size_t>(lines, 1);
  return options;
}

/// The state a fresh `thermosched serve` process holds when it calls
/// serve_stream: the request bytes, an empty solver cache, a new runner,
/// and a new memo (the engine's own throwaway one, or a freshly opened
/// disk memo).
struct FreshState {
  std::string bytes;
  std::unique_ptr<scenario::ScenarioRunner> runner;
  std::unique_ptr<dispatch::DiskResultMemo> disk;
  double setup_s = 0.0;  ///< generating the bytes + constructing the state
};

FreshState set_up(const Input& input, Checks& checks) {
  thermal::ThermalSolverCache& cache = thermal::ThermalSolverCache::instance();
  cache.clear();

  FreshState state;
  const auto start = Clock::now();
  state.bytes = generate_bytes(input, nullptr);
  state.runner = std::make_unique<scenario::ScenarioRunner>();
  if (!input.cache_dir.empty()) {
    state.disk = std::make_unique<dispatch::DiskResultMemo>(
        input.cache_dir, disk_options(input.ids.size()));
  }
  state.setup_s = seconds_since(start);

  checks.require(fnv1a64(state.bytes) == input.digest,
                 "regenerated request bytes differ from the first generation");
  checks.require(cache.stats().entries == 0,
                 "solver cache not empty at the start of a cold serve");
  return state;
}

struct Served {
  scenario::ServeSummary summary;
  std::string output;
  double setup_s = 0.0;
  std::size_t disk_appends = 0;  ///< appends by this serve's disk memo
};

/// One serve_stream call from a fresh state, at fifo with dedup on.
Served serve_fresh(const Input& input, std::size_t threads, Checks& checks) {
  FreshState state = set_up(input, checks);
  std::istringstream in(std::move(state.bytes));
  std::ostringstream out;
  scenario::ServeOptions options;
  options.threads = threads;
  options.policy = dispatch::SchedulePolicy::kFifo;
  options.dedup = true;
  options.disk_memo = state.disk.get();

  Served served;
  served.setup_s = state.setup_s;
  served.summary = scenario::serve_stream(in, out, *state.runner, options);
  served.output = std::move(out).str();
  if (state.disk != nullptr) {
    served.disk_appends = state.disk->store().stats().appends;
  }
  return served;
}

/// Fills a replay part's cache directory with one untimed serve from an
/// empty directory.
Served populate_cache(const Input& input, std::size_t threads, Checks& checks) {
  std::filesystem::remove_all(input.cache_dir);
  Served populated = serve_fresh(input, threads, checks);
  checks.require(populated.summary.executed == input.stats.fresh,
                 "populate: executed != fresh requests in the stream");
  checks.require(populated.disk_appends == input.stats.fresh,
                 "populate: disk appends != fresh requests in the stream");
  return populated;
}

void check_replay_state(const Served& served, const Input& input,
                        Checks& checks) {
  checks.require(served.summary.executed == 0,
                 "serve_replay executed requests; the cache was not warm");
  checks.require(served.disk_appends == 0, "serve_replay appended to the cache");
  checks.require(served.summary.disk_hits == input.stats.fresh,
                 "serve_replay disk hits != fresh requests in the stream");
}

// ---------------------------------------------------------------------------
// Bench-owned spans

struct Span {
  const char* layer;
  std::size_t request;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  double seconds() const { return static_cast<double>(end_ns - begin_ns) * 1e-9; }
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Records spans in memory when on; when off, reads no clock at all, so
/// the same replay with spans off measures tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, std::size_t request)
        : tracer_(tracer.on_ ? &tracer : nullptr), layer_(layer),
          request_(request), begin_ns_(tracer_ != nullptr ? now_ns() : 0) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->spans_.push_back(Span{layer_, request_, begin_ns_, now_ns()});
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* layer_;
    std::size_t request_;
    std::uint64_t begin_ns_;
  };

  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// Span layer names. run() rebuilds the SoC internally, so a run span's
// self time is its duration minus the same request's soc.build span.
constexpr const char* kParse = "scenario.parse";
constexpr const char* kCanonicalize = "scenario.canonicalize";
constexpr const char* kMemoFind = "dispatch.memo_find";
constexpr const char* kSocBuild = "soc.build";
constexpr const char* kModelFor = "thermal.model_for";
constexpr const char* kRun = "scenario.run";
constexpr const char* kSerialize = "scenario.serialize";
constexpr const char* kMemoInsert = "dispatch.memo_insert";
constexpr const char* kWrite = "scenario.write";

struct Replay {
  std::string output;
  double wall_s = 0.0;
  double open_s = 0.0;                 ///< disk memo open + scan
  std::vector<Span> spans;
  std::vector<std::size_t> executed;   ///< request indices that ran
  std::vector<std::size_t> disk_read;  ///< indices the disk tier answered
  std::vector<scenario::RequestKind> kinds;
  ObsSnapshot obs_before;
  ObsSnapshot obs_after;
};

/// Serves a part single-threaded in serve's order through the layers'
/// public entry points: parse → memo find → build_soc → model_for → run →
/// serialize → memo insert → write. The output must be byte-identical to
/// serve_stream's.
Replay replay(const Input& input, bool traced) {
  thermal::ThermalSolverCache::instance().clear();
  Replay result;
  Tracer tracer(traced);
  scenario::ScenarioRunner runner;
  std::unique_ptr<dispatch::ResultMemo> memo;
  dispatch::DiskResultMemo* disk = nullptr;
  if (!input.cache_dir.empty()) {
    const auto open_start = Clock::now();
    auto disk_memo = std::make_unique<dispatch::DiskResultMemo>(
        input.cache_dir, disk_options(input.ids.size()));
    result.open_s = seconds_since(open_start);
    disk = disk_memo.get();
    memo = std::move(disk_memo);
  } else {
    memo = std::make_unique<dispatch::ResultMemo>(
        std::max<std::size_t>(input.ids.size(), 1));
  }
  std::ostringstream out;

  // Generated lines are valid, canonical, carry their id and name their
  // solver backend, so serve's error records and defaults never apply.
  result.obs_before = obs_snapshot();
  const auto start = Clock::now();
  std::size_t index = 0;
  for (const std::string_view raw : split_lines(input.bytes)) {
    std::string record;
    scenario::ScenarioRequest request;
    {
      Tracer::Scope span(tracer, kParse, index);
      request = scenario::parse_request_line(raw);
    }
    result.kinds.push_back(request.kind);
    std::string key;
    {
      // serve's memo key: the request without its SLO envelope.
      Tracer::Scope span(tracer, kCanonicalize, index);
      scenario::ScenarioRequest keyed = request;
      keyed.deadline_s = 0.0;
      keyed.priority = 1.0;
      key = scenario::to_json_line(keyed);
    }
    std::optional<std::string> hit;
    {
      const std::size_t disk_before = disk != nullptr ? disk->disk_hits() : 0;
      Tracer::Scope span(tracer, kMemoFind, index);
      hit = memo->find(key);
      if (disk != nullptr && disk->disk_hits() != disk_before) {
        result.disk_read.push_back(index);
      }
    }
    if (hit) {
      record = std::move(*hit);
    } else {
      result.executed.push_back(index);
      std::optional<core::SocSpec> soc;
      {
        Tracer::Scope span(tracer, kSocBuild, index);
        soc = scenario::ScenarioRunner::build_soc(request.soc);
      }
      {
        Tracer::Scope span(tracer, kModelFor, index);
        runner.model_for(request.soc, *soc);
      }
      scenario::ScenarioResult ran;
      {
        Tracer::Scope span(tracer, kRun, index);
        ran = runner.run(request);
      }
      {
        Tracer::Scope span(tracer, kSerialize, index);
        record = scenario::to_json(ran).dump();
      }
      Tracer::Scope span(tracer, kMemoInsert, index);
      memo->insert(key, record);
    }
    {
      Tracer::Scope span(tracer, kWrite, index);
      out << record << '\n';
    }
    ++index;
  }
  result.wall_s = seconds_since(start);
  result.obs_after = obs_snapshot();
  result.output = std::move(out).str();
  result.spans = tracer.take();
  return result;
}

// ---------------------------------------------------------------------------
// Algorithm 1 through the core API (alg1_scale)

/// build_soc and the RCModel are timed by the replay's spans; this times
/// what only a direct call to Algorithm 1 exposes.
struct CoreReplay {
  double session_model_s = 0.0;
  double generate_s = 0.0;
  double factor_s = 0.0;        ///< factorization inside generate (obs)
  double median_solve_s = 0.0;  ///< one simulate_session, committed sessions
  std::size_t sessions = 0;
  std::size_t discarded = 0;
  std::size_t validations = 0;  ///< simulate() calls after the pre-pass
  std::size_t prepass = 0;      ///< solo simulations, one per core
  bool tl_raised = false;
};

/// Runs Algorithm 1 on a part's request directly, checks that the
/// schedule matches the served record and that SafetyChecker finds it
/// clean at TL, and times the parts the derived construction time needs.
CoreReplay core_replay(const Input& input, std::string_view record_line,
                       Checks& checks) {
  const scenario::ScenarioRequest& request = input.alg1;
  CoreReplay out;
  const core::SocSpec soc = scenario::ScenarioRunner::build_soc(request.soc);
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);

  core::ThermalSchedulerOptions options;
  options.temperature_limit = request.tl;
  options.stc_limit = request.stcl.min;
  options.weight_factor = request.weight_factor;
  options.solo_policy = request.solo_policy;
  options.core_order = request.core_order;
  options.model.stc_scale = request.stc_scale;
  auto t = Clock::now();
  { const core::SessionThermalModel timed(soc.flp, soc.package, options.model); }
  out.session_model_s = seconds_since(t);

  thermal::ThermalAnalyzer::Options oracle;
  oracle.dt = request.solver.dt;
  oracle.transient = request.solver.transient;
  oracle.backend = request.solver.backend;
  thermal::ThermalAnalyzer analyzer(model, oracle);
  const core::ThermalAwareScheduler scheduler(options);
  const ObsSnapshot before = obs_snapshot();
  t = Clock::now();
  const core::ScheduleResult result = scheduler.generate(soc, analyzer);
  out.generate_s = seconds_since(t);
  out.factor_s = obs_delta(before, obs_snapshot(), "thermal.factor_ns.sum") * 1e-9;
  out.sessions = result.schedule.session_count();
  out.discarded = result.discarded_sessions;
  out.validations = result.simulation_count;
  out.prepass = soc.core_count();
  out.tl_raised = scheduler.effective_temperature_limit() != request.tl;

  std::vector<double> solves;
  for (const core::TestSession& session : result.schedule.sessions) {
    const std::vector<double> power = session.power_map(soc);
    const double length = session.length(soc);
    t = Clock::now();
    analyzer.simulate_session(power, length);
    solves.push_back(seconds_since(t));
  }
  std::sort(solves.begin(), solves.end());
  out.median_solve_s = solves.empty() ? 0.0 : solves[solves.size() / 2];

  thermal::ThermalAnalyzer check_oracle(model, oracle);
  const core::SafetyChecker checker(scheduler.effective_temperature_limit());
  const core::SafetyReport report =
      checker.check(soc, result.schedule, check_oracle);
  checks.require(report.safe && result.schedule.is_complete(soc),
                 "alg1_scale: SafetyChecker found " + request.id + " unsafe");

  const JsonValue record = parse_json(record_line);
  const JsonValue* points = record.find("points");
  const bool one_point = points != nullptr && points->size() == 1;
  checks.require(one_point, "alg1_scale: record has no single point");
  if (one_point) {
    const JsonValue& p = points->items()[0];
    checks.require(
        number_at(p, "sessions") == static_cast<double>(out.sessions) &&
            number_at(p, "discarded_sessions") ==
                static_cast<double>(out.discarded) &&
            number_at(p, "schedule_length") == result.schedule_length &&
            number_at(p, "simulation_effort") == result.simulation_effort &&
            number_at(p, "max_temperature") == result.max_temperature,
        "alg1_scale: core replay of " + request.id +
            " disagrees with the served record");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Host speed reference
//
// A shared host's speed drifts by 20-40% over minutes, with process CPU
// time equal to wall time, so the drift is the processor's own speed, not
// descheduling. Untreated, it moves a whole run and swamps the spread
// between seeds. So before every timed serve the benchmark times a fixed
// burst of work owned by this file, and scales the run's times by
// kReferenceNominalS / (median burst time of the run). The library never
// runs the reference, so a change to the program moves only the serves.

/// A single cycle through 2^22 slots (16 MiB, past a shared last-level
/// cache's share), for the reference's memory walk: the program's models
/// and factors do not fit in cache either, and a neighbour's memory
/// traffic slows both. It adds 16 MiB to peak_rss_mb on every workload.
const std::vector<std::uint32_t>& reference_table() {
  static const std::vector<std::uint32_t> table = [] {
    // Sattolo's shuffle: a uniformly random permutation with one cycle.
    constexpr std::uint32_t n = 1u << 22;
    std::vector<std::uint32_t> next(n);
    for (std::uint32_t i = 0; i < n; ++i) next[i] = i;
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (std::uint32_t i = n - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }();
  return table;
}

/// One reference unit: a dense LU solve, number formatting and parsing, a
/// small map and hashing, the kinds of work the serve path does, then
/// a dependent walk and a streaming pass through a table that does not
/// fit in cache.
double reference_unit(std::uint64_t salt) {
  constexpr int n = 48;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ salt;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  std::vector<double> a(n * n);
  std::vector<double> b(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a[i * n + j] = next();
    a[i * n + i] += n;
    b[i] = next();
  }
  for (int k = 0; k < n; ++k) {
    for (int i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] / a[k * n + k];
      for (int j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      b[i] -= f * b[k];
    }
  }
  for (int i = n - 1; i >= 0; --i) {
    for (int j = i + 1; j < n; ++j) b[i] -= a[i * n + j] * b[j];
    b[i] /= a[i * n + i];
  }
  std::string text;
  std::map<std::string, double> fields;
  char buf[40];
  for (int i = 0; i < n; ++i) {
    const int len = std::snprintf(buf, sizeof buf, "\"k%d\":%.17g,", i, b[i]);
    text.append(buf, static_cast<std::size_t>(len));
    fields.emplace(std::string(buf, 4), b[i]);
  }
  double sum = 0.0;
  for (std::size_t pos = text.find(':'); pos != std::string::npos;
       pos = text.find(':', pos + 1)) {
    sum += std::strtod(text.c_str() + pos + 1, nullptr);
  }
  const std::vector<std::uint32_t>& table = reference_table();
  std::uint32_t at = static_cast<std::uint32_t>(salt * 2654435761u) % table.size();
  for (int step = 0; step < 800; ++step) at = table[at];
  std::uint64_t streamed = 0;
  const std::size_t from = (salt * 131072) % (table.size() - 131072);
  for (std::size_t i = from; i < from + 131072; ++i) streamed += table[i];
  return sum + static_cast<double>(fields.size()) +
         static_cast<double>(fnv1a64(text) & 0xff) + at + static_cast<double>(streamed & 0xff);
}

constexpr std::size_t kReferenceUnits = 20;  ///< units per burst
/// A burst's time on a quiet 4-vCPU x86-64 host. Scaling to it keeps
/// figures in seconds near what that host measures raw.
constexpr double kReferenceNominalS = 0.006;

/// Sum of every reference unit's result. It is printed with the details,
/// so the compiler cannot drop the reference work as unused.
double reference_checksum = 0.0;

/// Seconds for one burst of reference units on the calling thread: the
/// median of three bursts. Single-threaded even for 4-thread serves: a
/// burst on 4 threads waits for its slowest thread, so one descheduled
/// thread makes it an outlier, while the host's drift shows on one.
double reference_seconds() {
  // A new salt for every unit, so each walk and stream reaches memory
  // that the last burst did not leave in cache.
  static std::uint64_t salt = 0;
  std::vector<double> bursts;
  for (int burst = 0; burst < 3; ++burst) {
    const auto start = Clock::now();
    for (std::size_t u = 0; u < kReferenceUnits; ++u) {
      reference_checksum += reference_unit(++salt);
    }
    bursts.push_back(seconds_since(start));
  }
  std::sort(bursts.begin(), bursts.end());
  return bursts[1];
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double exec_wall_sum(const scenario::ServeSummary& summary) {
  double sum = 0.0;
  for (const scenario::RequestTiming& t : summary.request_timings) {
    sum += t.wall_seconds;
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

JsonValue count_json(std::size_t n) {
  return JsonValue::number(static_cast<double>(n));
}

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  JsonValue details = JsonValue::object();
};

/// Timed serves of one part; medians over them make the part's figures.
struct PartTimes {
  std::optional<std::uint64_t> reference;
  std::vector<double> walls, p50s, p99s;
};

// One set-up sample is the mean over a block of at least this long (the
// serve's own set-up plus repeats), so microsecond set-ups are not clock
// noise.
constexpr double kSetupBlockS = 0.02;

/// --trace 0: untraced serves, each part from a fresh state, cycled
/// until `seconds` have passed and every part has been served once.
Outcome timed_mode(const Plan& plan, std::vector<Input>& inputs,
                   double seconds, Checks& checks) {
  for (Input& input : inputs) input.bytes = std::string();
  std::vector<double> setups;
  std::vector<PartTimes> parts(inputs.size());
  RecordTotals totals;
  if (plan.kind == Kind::kServeReplay) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const Served populated = populate_cache(inputs[k], plan.threads, checks);
      check_output(populated.output, inputs[k], parts[k].reference, checks,
                   "populate " + std::to_string(k));
      add_distinct_records(populated.output, inputs[k], totals);
    }
  }

  // The first output of each part is checked record by record after the
  // loop, so the loop's time goes to serves; later outputs are compared
  // with it by digest as they come.
  std::vector<std::string> first_outputs(inputs.size());
  std::vector<double> references;
  std::size_t serves = 0;
  std::size_t attempted = 0;
  double exec_cpu = 0.0;
  double exec_wall = 0.0;
  const auto loop_start = Clock::now();
  while (serves < std::max<std::size_t>(3, inputs.size()) ||
         seconds_since(loop_start) < seconds) {
    const std::size_t k = serves % inputs.size();
    const Input& input = inputs[k];
    references.push_back(reference_seconds());
    Served served = serve_fresh(input, plan.threads, checks);
    ++serves;
    const scenario::ServeSummary& s = served.summary;
    PartTimes& part = parts[k];
    part.walls.push_back(s.wall_seconds);
    // Latency: from the serve_stream call until the request's record
    // exists — planning time plus its completion in the window.
    const double plan_s = std::max(0.0, s.wall_seconds - s.makespan_seconds);
    std::vector<double> latencies;
    for (const scenario::RequestTiming& t : s.request_timings) {
      latencies.push_back(plan_s + t.done_seconds);
      exec_cpu += t.cpu_seconds;
      exec_wall += t.wall_seconds;
    }
    part.p50s.push_back(percentile(latencies, 0.50));
    part.p99s.push_back(percentile(latencies, 0.99));
    attempted += input.ids.size();
    if (plan.kind == Kind::kServeReplay) check_replay_state(served, input, checks);
    const std::uint64_t digest = fnv1a64(served.output);
    if (!part.reference) {
      part.reference = digest;
      first_outputs[k] = std::move(served.output);
    } else if (digest != *part.reference) {
      checks.fail(std::max<std::size_t>(1, count_bad_records(served.output, input)),
                  "serve " + std::to_string(serves) +
                      ": output bytes differ from the part's first output");
    }

    std::size_t reps = 1;
    double spent = served.setup_s;
    for (; spent < kSetupBlockS; ++reps) spent += set_up(input, checks).setup_s;
    setups.push_back(spent / static_cast<double>(reps));
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    if (first_outputs[k].empty()) continue;  // serve_replay: checked at populate
    std::optional<std::uint64_t> unchecked;
    check_output(first_outputs[k], inputs[k], unchecked, checks,
                 "part " + std::to_string(k));
    add_distinct_records(first_outputs[k], inputs[k], totals);
    if (plan.kind == Kind::kAlg1Scale) core_replay(inputs[k], first_outputs[k], checks);
  }

  // Every time metric is scaled to the nominal host speed; the raw part
  // walls and the scale stay in the details.
  const double scale = kReferenceNominalS / median(references);
  double requests = 0.0;
  double wall_sum = 0.0;
  std::vector<double> walls, p50s, p99s;
  JsonValue part_walls = JsonValue::array();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    requests += static_cast<double>(inputs[k].ids.size());
    walls.push_back(median(parts[k].walls) * scale);
    wall_sum += walls.back();
    p50s.push_back(median(parts[k].p50s) * scale);
    p99s.push_back(median(parts[k].p99s) * scale);
    JsonValue w = JsonValue::array();
    for (const double wall : parts[k].walls) w.append(JsonValue::number(wall));
    part_walls.append(std::move(w));
  }

  Outcome outcome;
  outcome.details.set("part_walls_s", std::move(part_walls));
  JsonValue reference_samples = JsonValue::array();
  for (const double r : references) reference_samples.append(JsonValue::number(r));
  outcome.details.set("reference_samples_s", std::move(reference_samples));
  outcome.details.set("reference_s", JsonValue::number(median(references)));
  outcome.details.set("host_scale", JsonValue::number(scale));
  outcome.details.set("reference_checksum", JsonValue::number(reference_checksum));
  outcome.details.set("serves", count_json(serves));
  // Below 1 when workers were descheduled while executing: a sign of
  // interference from outside the process.
  outcome.details.set("exec_cpu_over_wall", JsonValue::number(ratio(exec_cpu, exec_wall)));
  outcome.details.set("setup_samples", count_json(setups.size()));
  outcome.details.set("distinct_sessions", count_json(totals.sessions));
  outcome.details.set("distinct_discarded_sessions", count_json(totals.discarded));
  outcome.attempted = attempted;
  outcome.metrics = {
      {"requests_per_s", ratio(requests, wall_sum), "1/s"},
      {"latency_p50_ms", mean(p50s) * 1e3, "ms"},
      {"latency_p99_ms", mean(p99s) * 1e3, "ms"},
      {"schedule_s", mean(walls), "s"},
      {"setup_s", median(setups) * scale, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_ratio",
       1.0 - std::min(1.0, ratio(static_cast<double>(checks.failed),
                                 static_cast<double>(attempted))),
       "ratio"},
      {"schedule_length_s", totals.schedule_length, "s"},
      {"simulation_effort_s", totals.simulation_effort, "s"},
  };
  return outcome;
}

/// Per-layer self time from the traced replay, keyed by metric name.
std::map<std::string, double> layer_seconds(const Replay& traced) {
  std::map<std::size_t, double> soc_build_by_request;
  for (const Span& span : traced.spans) {
    if (span.layer == kSocBuild) soc_build_by_request[span.request] += span.seconds();
  }
  const std::map<std::string_view, std::string> names = {
      {kParse, "scenario.parse_s"},
      {kCanonicalize, "scenario.canonicalize_s"},
      {kSerialize, "scenario.serialize_s"},
      {kWrite, "scenario.write_s"},
      {kMemoFind, "dispatch.memo_s"},
      {kMemoInsert, "dispatch.memo_s"},
      {kSocBuild, "soc.build_s"},
      {kModelFor, "thermal.model_build_s"},
  };
  std::vector<bool> from_disk(traced.kinds.size(), false);
  for (const std::size_t i : traced.disk_read) from_disk[i] = true;

  std::map<std::string, double> layers;
  for (const Span& span : traced.spans) {
    if (span.layer == kRun) {
      // Exclusive of the SoC rebuild inside run().
      layers[std::string("scenario.run_s.") +
             scenario::request_kind_name(traced.kinds[span.request])] +=
          std::max(0.0, span.seconds() - soc_build_by_request[span.request]);
      continue;
    }
    layers[names.at(span.layer)] += span.seconds();
    if (span.layer == kMemoFind && from_disk[span.request]) {
      layers["persist.get_s"] += span.seconds();
    }
  }
  return layers;
}

/// The slowest request in the traced replay, with its spans — the entry
/// point for "why was this request slow".
JsonValue slowest_request(const Replay& traced, const Input& input) {
  std::map<std::size_t, double> totals;
  for (const Span& span : traced.spans) totals[span.request] += span.seconds();
  JsonValue out = JsonValue::object();
  if (totals.empty()) return out;
  const auto slowest = std::max_element(
      totals.begin(), totals.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  out.set("index", count_json(slowest->first));
  out.set("id", JsonValue::string(input.ids[slowest->first]));
  out.set("seconds", JsonValue::number(slowest->second));
  JsonValue spans = JsonValue::array();
  for (const Span& span : traced.spans) {
    if (span.request != slowest->first) continue;
    JsonValue s = JsonValue::object();
    s.set("layer", JsonValue::string(span.layer));
    s.set("seconds", JsonValue::number(span.seconds()));
    spans.append(std::move(s));
  }
  out.set("spans", std::move(spans));
  return out;
}

/// --trace 1, on part 0: one untraced serve at 1 thread and one at the
/// workload's thread count, then the replay with spans off and on. All
/// four outputs must match the single-threaded serve byte for byte.
Outcome traced_mode(const Plan& plan, const Input& input, Checks& checks) {
  std::optional<std::uint64_t> reference;
  if (plan.kind == Kind::kServeReplay) {
    const Served populated = populate_cache(input, 1, checks);
    check_output(populated.output, input, reference, checks, "populate");
  }
  const Served single = serve_fresh(input, 1, checks);
  const ObsSnapshot serve_before = obs_snapshot();
  const Served parallel =
      plan.threads == 1 ? single : serve_fresh(input, plan.threads, checks);
  const ObsSnapshot serve_after = obs_snapshot();
  const Replay plain = replay(input, false);
  const Replay traced = replay(input, true);
  check_output(single.output, input, reference, checks, "1-thread serve");
  check_output(parallel.output, input, reference, checks, "parallel serve");
  check_output(plain.output, input, reference, checks, "replay");
  check_output(traced.output, input, reference, checks, "traced replay");
  if (plan.kind == Kind::kServeReplay) {
    check_replay_state(single, input, checks);
    check_replay_state(parallel, input, checks);
    checks.require(traced.executed.empty(), "serve_replay replay executed requests");
  }

  const std::map<std::string, double> layers = layer_seconds(traced);
  const auto layer = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second;
  };
  const auto replay_obs = [&](std::string_view key) {
    return obs_delta(traced.obs_before, traced.obs_after, key);
  };
  const auto serve_obs = [&](std::string_view key) {
    return obs_delta(serve_before, serve_after, key);
  };

  double span_total = 0.0;
  double model_lookups = 0.0;
  for (const Span& span : traced.spans) {
    span_total += span.seconds();
    if (span.layer == kModelFor) model_lookups += 1.0;
  }

  // Algorithm 1 counts derived from the records the replay executed.
  RecordTotals executed;
  const std::vector<std::string_view> lines = split_lines(traced.output);
  for (const std::size_t i : traced.executed) add_record(lines[i], executed);

  const scenario::ServeSummary& s = parallel.summary;
  std::vector<double> waits;
  double busy = 0.0;
  for (const scenario::RequestTiming& t : s.request_timings) {
    if (t.memo_hit) continue;
    waits.push_back(t.queue_wait_seconds);
    busy += t.wall_seconds;
  }

  const double factor_hits = replay_obs("thermal.solver_cache.hits");
  const double factorizations = replay_obs("thermal.solver_cache.misses");
  const double model_builds = replay_obs("scenario.model_build_ns.count");

  double sessions = static_cast<double>(executed.sessions);
  double discarded = static_cast<double>(executed.discarded);
  double validations = static_cast<double>(executed.sessions + executed.discarded);
  double validation_solves =
      validations + static_cast<double>(executed.prepass_solves);
  double validation_s = 0.0;
  double session_model_s = 0.0;
  double construction_s = 0.0;
  Outcome outcome;
  if (plan.kind == Kind::kAlg1Scale) {
    const CoreReplay core = core_replay(input, single.output, checks);
    sessions = static_cast<double>(core.sessions);
    discarded = static_cast<double>(core.discarded);
    validations = static_cast<double>(core.validations);
    validation_solves = static_cast<double>(core.validations + core.prepass);
    validation_s = validation_solves * core.median_solve_s;
    session_model_s = core.session_model_s;
    // Derived, not measured: generate minus its solves and factorization.
    construction_s = std::max(0.0, core.generate_s - validation_s - core.factor_s);
    outcome.details.set("core_generate_s", JsonValue::number(core.generate_s));
    outcome.details.set("core_median_solve_s", JsonValue::number(core.median_solve_s));
    outcome.details.set("tl_raised", JsonValue::boolean(core.tl_raised));
  }
  outcome.details.set("replay_wall_s", JsonValue::number(traced.wall_s));
  outcome.details.set("replay_spans", count_json(traced.spans.size()));
  outcome.details.set("slowest_request", slowest_request(traced, input));

  const double n = static_cast<double>(input.ids.size());
  outcome.attempted = 4 * input.ids.size();
  outcome.metrics = {
      {"scenario.parse_s", layer("scenario.parse_s"), "s"},
      {"scenario.canonicalize_s", layer("scenario.canonicalize_s"), "s"},
      {"scenario.serialize_s", layer("scenario.serialize_s"), "s"},
      {"scenario.write_s", layer("scenario.write_s"), "s"},
      {"scenario.run_s.stcl_sweep", layer("scenario.run_s.stcl_sweep"), "s"},
      {"scenario.run_s.ptrace", layer("scenario.run_s.ptrace"), "s"},
      {"scenario.run_s.chained", layer("scenario.run_s.chained"), "s"},
      {"scenario.parse_errors", serve_obs("scenario.parse_errors"), "count"},
      {"dispatch.executed", static_cast<double>(s.executed), "count"},
      {"dispatch.memo_hits", static_cast<double>(s.memo_hits), "count"},
      {"dispatch.memo_hit_ratio", ratio(static_cast<double>(s.memo_hits), n), "ratio"},
      {"dispatch.memo_s", layer("dispatch.memo_s"), "s"},
      {"dispatch.plan_s", std::max(0.0, s.wall_seconds - s.makespan_seconds), "s"},
      {"dispatch.queue_wait_p50_ms", percentile(waits, 0.50) * 1e3, "ms"},
      {"dispatch.queue_wait_p99_ms", percentile(waits, 0.99) * 1e3, "ms"},
      {"dispatch.exec_inflation",
       ratio(exec_wall_sum(parallel.summary), exec_wall_sum(single.summary)), "ratio"},
      {"persist.open_scan_s", traced.open_s, "s"},
      {"persist.get_hits", serve_obs("persist.get_hits"), "count"},
      {"persist.get_misses", serve_obs("persist.get_misses"), "count"},
      {"persist.get_s", layer("persist.get_s"), "s"},
      {"persist.appends", serve_obs("persist.appends"), "count"},
      {"soc.builds", static_cast<double>(traced.executed.size()), "count"},
      {"soc.build_s", layer("soc.build_s"), "s"},
      {"thermal.model_builds", model_builds, "count"},
      {"thermal.model_hits", std::max(0.0, model_lookups - model_builds), "count"},
      {"thermal.model_build_s", layer("thermal.model_build_s"), "s"},
      {"thermal.factorizations", factorizations, "count"},
      {"thermal.factor_evictions", replay_obs("thermal.solver_cache.evictions"), "count"},
      {"thermal.factor_s", replay_obs("thermal.factor_ns.sum") * 1e-9, "s"},
      {"thermal.factor_reuse_ratio", ratio(factor_hits, factor_hits + factorizations),
       "ratio"},
      {"thermal.validation_solves", validation_solves, "count"},
      {"thermal.validation_s", validation_s, "s"},
      {"core.session_model_s", session_model_s, "s"},
      {"core.construction_s", construction_s, "s"},
      {"core.sessions", sessions, "count"},
      {"core.discarded_sessions", discarded, "count"},
      {"core.validations", validations, "count"},
      {"sweep.busy_ratio",
       ratio(busy, static_cast<double>(s.threads) * s.makespan_seconds), "ratio"},
      {"sweep.scaling_efficiency",
       ratio(single.summary.wall_seconds,
             static_cast<double>(plan.threads) * s.wall_seconds),
       "ratio"},
      {"trace.coverage", ratio(span_total, traced.wall_s), "ratio"},
      {"trace.overhead", ratio(traced.wall_s, plain.wall_s), "ratio"},
  };
  return outcome;
}

// ---------------------------------------------------------------------------
// Command line and output

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Everything that makes two results comparable: the workload's inputs,
/// the machine, and the build.
JsonValue identity(const Args& args, const Plan& plan,
                   const std::vector<Input>& inputs) {
  JsonValue id = JsonValue::object();
  id.set("workload", JsonValue::string(plan.name));
  id.set("seed", count_json(plan.seed));
  id.set("quick", JsonValue::boolean(args.quick));
  id.set("trace", JsonValue::boolean(args.trace));
  id.set("threads", count_json(plan.threads));
  if (plan.kind != Kind::kAlg1Scale) {
    const gen::GenConfig& g = plan.gen;
    JsonValue knobs = JsonValue::object();
    knobs.set("count", count_json(g.count));
    knobs.set("dup_rate", JsonValue::number(g.dup_rate));
    knobs.set("zipf_skew", JsonValue::number(g.zipf_skew));
    knobs.set("order", JsonValue::string(gen::order_pattern_name(g.order)));
    JsonValue mix = JsonValue::object();
    mix.set("sweep", JsonValue::number(g.mix.sweep));
    mix.set("ptrace", JsonValue::number(g.mix.ptrace));
    mix.set("chained", JsonValue::number(g.mix.chained));
    mix.set("grid", JsonValue::number(g.mix.grid));
    knobs.set("mix", std::move(mix));
    id.set("gen", std::move(knobs));
  }
  JsonValue parts = JsonValue::array();
  for (const Input& input : inputs) {
    JsonValue part = JsonValue::object();
    part.set("part", count_json(input.part));
    if (plan.kind == Kind::kAlg1Scale) {
      part.set("request", scenario::to_json(input.alg1));
    } else {
      const gen::GenStats& st = input.stats;
      part.set("gen_seed", count_json(input.gen.seed));
      JsonValue stats = JsonValue::object();
      stats.set("count", count_json(st.count));
      stats.set("fresh", count_json(st.fresh));
      stats.set("duplicates", count_json(st.duplicates));
      stats.set("sweep", count_json(st.sweep));
      stats.set("ptrace", count_json(st.ptrace));
      stats.set("chained", count_json(st.chained));
      stats.set("grid", count_json(st.grid));
      part.set("gen_stats", std::move(stats));
    }
    part.set("requests", count_json(input.ids.size()));
    part.set("input_fnv64", JsonValue::string(hex64(input.digest)));
    parts.append(std::move(part));
  }
  id.set("parts", std::move(parts));
  id.set("nproc", count_json(std::thread::hardware_concurrency()));
  id.set("compiler", JsonValue::string(__VERSION__));
  id.set("build_type", JsonValue::string(PERFBENCH_BUILD_TYPE));
  id.set("commit", JsonValue::string(args.commit));
  id.set("source_digest", JsonValue::string(args.source_digest));
  return id;
}

void remove_caches(const std::vector<Input>& inputs) {
  for (const Input& input : inputs) {
    if (input.cache_dir.empty()) continue;
    std::error_code ignored;
    std::filesystem::remove_all(input.cache_dir, ignored);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  std::optional<Plan> plan;
  if (args) plan = make_plan(*args);
  if (!args || !plan) {
    std::cerr << "usage: perfbench --workload serve_cold|serve_replay|alg1_scale "
                 "--seed N --seconds S --trace 0|1 [--quick] [--work-dir DIR] "
                 "[--commit C] [--source-digest D]\n";
    return 2;
  }
  std::vector<Input> inputs;
  try {
    // The traced run measures part 0 alone.
    const std::size_t parts = args->trace ? 1 : plan->parts;
    for (std::size_t k = 0; k < parts; ++k) inputs.push_back(make_input(*plan, k));
    Checks checks;
    Outcome outcome = args->trace ? traced_mode(*plan, inputs.front(), checks)
                                  : timed_mode(*plan, inputs, args->seconds, checks);
    remove_caches(inputs);

    JsonValue head = JsonValue::object();
    JsonValue id = identity(*args, *plan, inputs);
    id.set("details", std::move(outcome.details));
    head.set("perfbench_identity", std::move(id));
    std::cout << head.dump() << '\n';

    JsonValue metrics = JsonValue::object();
    for (const Metric& metric : outcome.metrics) {
      JsonValue m = JsonValue::object();
      m.set("value", JsonValue::number(metric.value));
      m.set("unit", JsonValue::string(metric.unit));
      metrics.set(metric.name, std::move(m));
    }
    const bool correct = checks.failed == 0;
    JsonValue result = JsonValue::object();
    result.set("correct", JsonValue::boolean(correct));
    result.set("attempted", count_json(std::max<std::size_t>(outcome.attempted, 1)));
    result.set("failed", count_json(checks.failed));
    result.set("metrics", std::move(metrics));
    for (const std::string& message : checks.messages) {
      std::cerr << "perfbench: check failed: " << message << '\n';
    }
    std::cout << result.dump() << '\n' << std::flush;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    remove_caches(inputs);
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
