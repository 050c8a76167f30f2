// The dispatch-backed serve path: the property the whole subsystem
// hangs on — output bytes identical across {fifo,ljf} × {1,4} threads
// × dedup {on,off} on a randomized batch with invalid lines in place —
// plus request cost estimation (the exact formula, its monotonicity and
// ranking), per-request timings, duplicate-batch memoization through a
// disk memo, verbatim repeats sharing one parse, lines prepared on the
// worker pool, and the summary JSON payload.
#include "scenario/serve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dispatch/disk_result_memo.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "scenario/cost.hpp"
#include "gen_test_util.hpp"
#include "persist_test_util.hpp"

namespace thermo::scenario {
namespace {

/// A randomized-but-reproducible 50-line batch: 46 generated requests
/// (mixed SoCs, kinds, corners, STCL spans) with four invalid lines
/// spliced in at fixed positions, which must produce ok:false records
/// *in place*.
std::string mixed_batch() {
  std::string input;
  std::size_t line = 0;
  for (const std::string& request : testing::small_gen_lines(46, 33)) {
    if (line == 3) input += "{definitely not json\n";
    if (line == 10) input += "{\"tl\":-40}\n";
    if (line == 27) input += "{\"soc\":{\"kind\":\"alhpa\"}}\n";
    if (line == 40) input += "{\"stcl\":{\"min\":5}}\n";
    input += request + "\n";
    ++line;
  }
  return input;
}

struct RunOutput {
  std::string records;
  ServeSummary summary;
};

RunOutput run_serve(const std::string& input, const ServeOptions& options,
                    ScenarioRunner* shared_runner = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  ScenarioRunner local_runner;
  ScenarioRunner& runner =
      shared_runner != nullptr ? *shared_runner : local_runner;
  const ServeSummary summary = serve_stream(in, out, runner, options);
  return RunOutput{out.str(), summary};
}

TEST(ServeDispatch, ByteIdenticalAcrossPolicyThreadsAndDedup) {
  const std::string input = mixed_batch();
  ServeOptions reference_options;
  reference_options.threads = 1;
  const RunOutput reference = run_serve(input, reference_options);
  EXPECT_EQ(reference.summary.requests, 50u);
  EXPECT_EQ(reference.summary.failed, 4u);
  EXPECT_EQ(reference.summary.succeeded, 46u);

  for (const dispatch::SchedulePolicy policy :
       {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kLjf}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const bool dedup : {true, false}) {
        ServeOptions options;
        options.policy = policy;
        options.threads = threads;
        options.dedup = dedup;
        const RunOutput run = run_serve(input, options);
        EXPECT_EQ(run.records, reference.records)
            << "policy=" << dispatch::schedule_policy_name(policy)
            << " threads=" << threads << " dedup=" << dedup;
        EXPECT_EQ(run.summary.failed, 4u);
      }
    }
  }
}

TEST(ServeDispatch, InvalidLinesFailInPlace) {
  const RunOutput run = run_serve(mixed_batch(), {});
  std::vector<std::string> records;
  std::istringstream lines(run.records);
  for (std::string l; std::getline(lines, l);) records.push_back(l);
  ASSERT_EQ(records.size(), 50u);
  // The invalid lines were spliced in before gen lines 3/10/27/40, so
  // they landed at batch slots 3, 11, 29, and 43 (each earlier splice
  // shifts the later ones by one).
  for (const std::size_t slot : {std::size_t{3}, std::size_t{11},
                                 std::size_t{29}, std::size_t{43}}) {
    EXPECT_NE(records[slot].find("\"ok\":false"), std::string::npos)
        << "slot " << slot << ": " << records[slot];
    EXPECT_NE(records[slot].find("\"id\":\"line-"), std::string::npos);
  }
  EXPECT_NE(records[3].find("json: line 1"), std::string::npos);
  EXPECT_NE(records[11].find("tl: must be finite and > 0"), std::string::npos);
  EXPECT_NE(records[29].find("unknown SoC kind 'alhpa'"), std::string::npos);
  EXPECT_NE(records[43].find("requires both min and max"), std::string::npos);
}

TEST(ServeDispatch, ExcludePolicyLineGetsAnExactError) {
  // A line that does not parse is answered under its line number.
  const std::string good = R"({"id":"good","soc":{"kind":"alpha"}})" "\n";
  const RunOutput run = run_serve(
      good + R"({"id":"hot","tl":100,"solo_policy":"exclude"})" "\n", {});
  EXPECT_EQ(run.records,
            run_serve(good, {}).records +
                R"({"id":"line-2","ok":false,"error":"scenario request: )"
                R"x(solo_policy: unknown policy 'exclude' (expected 'throw' )x"
                R"x(or 'raise-limit')"})x" "\n");
}

TEST(ServeDispatch, NonFiniteCostFailsOnlyItsLine) {
  // dt = 1e-320 parses (positive, finite) but overflows the cost
  // estimate's step count: that line alone fails, and is not memoized.
  const std::string good = R"({"id":"good","soc":{"kind":"alpha"}})" "\n";
  const std::string expected =
      run_serve(good, {}).records +
      R"({"id":"line-2","ok":false,"error":"scenario request: estimated cost )"
      R"x(is not finite (solver.dt too small for the test lengths)"})x" "\n";
  for (const dispatch::SchedulePolicy policy :
       {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kLjf}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ServeOptions options;
      options.policy = policy;
      options.threads = threads;
      const RunOutput run =
          run_serve(good + R"({"solver":{"dt":1e-320}})" "\n", options);
      EXPECT_EQ(run.records, expected)
          << dispatch::schedule_policy_name(policy) << " x" << threads;
      EXPECT_EQ(run.summary.memo_hits, 0u);
    }
  }
}

TEST(ServeDispatch, ErrorRecordsCarryNoSourcePaths) {
  // Records are pure functions of the request bytes: a failed library
  // precondition must not leak the build's source paths into them (the
  // disk cache would replay those bytes into other builds).
  const std::string input =
      R"({"id":"x","soc":{"kind":"alpha","power_scale":1e308},"tl":100,"stcl":50})"
      "\n"
      R"({"id":"d","solver":{"backend":"dense"}})"
      "\n"
      R"({"id":"g","kind":"grid_steady","soc":{"kind":"fig1","power_scale":1e308},"grid":{"rows":8,"cols":8}})"
      "\n";
  const RunOutput run = run_serve(input, {});
  EXPECT_EQ(run.summary.failed, 3u);
  std::istringstream lines(run.records);
  for (std::string record; std::getline(lines, record);) {
    EXPECT_NE(record.find("\"ok\":false"), std::string::npos) << record;
    EXPECT_EQ(record.find(".cpp:"), std::string::npos) << record;
    EXPECT_EQ(record.find(".hpp:"), std::string::npos) << record;
  }
}

TEST(ServeDispatch, PerRequestTimingsRideInTheSummaryOnly) {
  ServeOptions options;
  options.threads = 2;
  const RunOutput run = run_serve(mixed_batch(), options);
  ASSERT_EQ(run.summary.request_timings.size(), 50u);
  std::size_t ok_count = 0;
  for (const RequestTiming& timing : run.summary.request_timings) {
    EXPECT_FALSE(timing.id.empty());
    EXPECT_GE(timing.wall_seconds, 0.0);
    EXPECT_GE(timing.cpu_seconds, 0.0);
    if (timing.ok) ++ok_count;
  }
  EXPECT_EQ(ok_count, run.summary.succeeded);
  // Valid requests carry a positive cost estimate; every request ran
  // (the generated batch has no duplicate lines for the memo to collapse).
  EXPECT_GT(run.summary.request_timings[0].cost, 0.0);
  // Wall-clock must never leak into the deterministic records.
  EXPECT_EQ(run.records.find("wall"), std::string::npos);
  EXPECT_GT(run.summary.makespan_seconds, 0.0);
  EXPECT_LE(run.summary.makespan_seconds, run.summary.wall_seconds);
}

TEST(ServeDispatch, DuplicateRequestsHitTheMemoWithinABatch) {
  // Ten copies of one request (same explicit id ⇒ identical canonical
  // bytes ⇒ one execution) plus one distinct request.
  ScenarioRequest repeated;
  static const std::string kRepeatedId = "rep";
  repeated.id = kRepeatedId;
  repeated.stcl.min = repeated.stcl.max = 45.0;
  ScenarioRequest other;
  static const std::string kOtherId = "other";
  other.id = kOtherId;
  other.stcl.min = other.stcl.max = 60.0;
  std::string input;
  for (int i = 0; i < 10; ++i) input += to_json_line(repeated) + "\n";
  input += to_json_line(other) + "\n";

  ServeOptions dedup_on;
  dedup_on.threads = 4;
  const RunOutput on = run_serve(input, dedup_on);
  EXPECT_EQ(on.summary.executed, 2u);
  EXPECT_EQ(on.summary.memo_hits, 9u);
  EXPECT_EQ(on.summary.succeeded, 11u);

  ServeOptions dedup_off = dedup_on;
  dedup_off.dedup = false;
  const RunOutput off = run_serve(input, dedup_off);
  EXPECT_EQ(off.summary.executed, 11u);
  EXPECT_EQ(off.summary.memo_hits, 0u);
  EXPECT_EQ(off.records, on.records);  // the invariant, again

  // All ten records are identical lines; the distinct one differs.
  std::vector<std::string> records;
  std::istringstream lines(on.records);
  for (std::string l; std::getline(lines, l);) records.push_back(l);
  ASSERT_EQ(records.size(), 11u);
  for (int i = 1; i < 10; ++i) EXPECT_EQ(records[i], records[0]);
  EXPECT_NE(records[10], records[0]);
}

TEST(ServeDispatch, SharedMemoDedupsAcrossBatches) {
  const std::string input = mixed_batch();
  const thermo::testing::ScopedTempDir dir("serve-memo");
  dispatch::DiskResultMemo memo(dir.path());
  ScenarioRunner runner;
  ServeOptions options;
  options.threads = 2;
  options.disk_memo = &memo;

  const RunOutput first = run_serve(input, options, &runner);
  EXPECT_EQ(first.summary.executed, 50u);  // 46 valid + 4 keyless invalid
  EXPECT_EQ(first.summary.memo_hits, 0u);
  EXPECT_EQ(first.summary.threads, 2u);  // workers actually executing

  const RunOutput second = run_serve(input, options, &runner);
  // Valid requests are all answered from the memo; the invalid lines
  // re-execute (their records depend on line numbers, so they are
  // deliberately keyless) — but they cost nothing.
  EXPECT_EQ(second.summary.memo_hits, 46u);
  EXPECT_EQ(second.summary.executed, 4u);
  EXPECT_EQ(second.records, first.records);
}

// --- verbatim repeats share one parse --------------------------------

std::vector<std::string> split_records(const std::string& records) {
  std::vector<std::string> out;
  std::istringstream lines(records);
  for (std::string line; std::getline(lines, line);) out.push_back(line);
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

/// Lines actually parsed: scenario.parse_ns records one sample each.
std::uint64_t parse_samples() {
  return obs::MetricsRegistry::instance().histogram("scenario.parse_ns").count();
}

/// Serves `input` at 1 and then 4 threads, each from a reset metrics
/// registry, and hands every run to `check`.
template <typename Check>
void serve_at_1_and_4_threads(const std::string& input, ServeOptions options,
                              const Check& check) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    obs::MetricsRegistry::instance().reset();
    check(run_serve(input, options));
  }
}

TEST(ServeCollapse, RepeatsWithoutAnIdKeepTheirOwnLineNumbers) {
  // Each copy's record holds its own line number, so nothing is shared:
  // three parses, three memo keys, three executions.
  const std::string line = R"({"soc":{"kind":"fig1"},"stcl":40})" "\n";
  serve_at_1_and_4_threads(line + line + line, {}, [](const RunOutput& run) {
    const std::vector<std::string> records = split_records(run.records);
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::string head = "{\"id\":\"line-" + std::to_string(i + 1) + "\"";
      ASSERT_EQ(records[i].rfind(head, 0), 0u) << records[i];
      EXPECT_EQ(records[i].substr(head.size()),
                records[0].substr(head.size()));
    }
    EXPECT_EQ(run.summary.succeeded, 3u);
    EXPECT_EQ(run.summary.executed, 3u);
    EXPECT_EQ(run.summary.memo_hits, 0u);
    EXPECT_EQ(parse_samples(), 3u);
  });
}

// A "throw" request whose core breaks TL alone fails with an error that
// names the request value to use instead, not a library name.
TEST(ServeRecords, ThrowPolicyErrorNamesTheRequestValue) {
  const RunOutput run =
      run_serve(R"({"tl":100,"solo_policy":"throw"})" "\n", ServeOptions{});
  EXPECT_EQ(run.records,
            "{\"id\":\"line-1\",\"ok\":false,\"error\":\"core 'Icache' "
            "violates TL alone (131.437 >= 100 C); fix the core's test "
            "infrastructure, raise TL, or use solo policy 'raise-limit'\"}\n");
  EXPECT_EQ(run.summary.failed, 1u);
}

TEST(ServeCollapse, MalformedRepeatsEachFailAndCount) {
  const std::string broken = "{oops\n";
  const std::string invalid = R"({"id":"bad","tl":-40})" "\n";
  serve_at_1_and_4_threads(
      broken + invalid + broken + invalid, {}, [](const RunOutput& run) {
        const std::vector<std::string> records = split_records(run.records);
        ASSERT_EQ(records.size(), 4u);
        for (std::size_t i = 0; i < records.size(); ++i) {
          EXPECT_EQ(records[i].rfind("{\"id\":\"line-" + std::to_string(i + 1) +
                                         "\",\"ok\":false,\"error\":",
                                     0),
                    0u)
              << records[i];
        }
        EXPECT_NE(records[2].find("json: line 1"), std::string::npos);
        EXPECT_NE(records[3].find("tl: must be finite and > 0"),
                  std::string::npos);
        EXPECT_EQ(run.summary.failed, 4u);
        EXPECT_EQ(counter("scenario.requests"), 4u);
        EXPECT_EQ(counter("scenario.parse_errors"), 4u);
        EXPECT_EQ(parse_samples(), 4u);
      });
}

TEST(ServeCollapse, CrlfAndLfCopiesShareOneParse) {
  const std::string line = R"({"id":"x","soc":{"kind":"fig1"},"stcl":40})";
  const std::string input = line + "\r\n" + line + "\n";
  for (const bool dedup : {true, false}) {
    SCOPED_TRACE(dedup ? "dedup on" : "dedup off");
    ServeOptions options;
    options.dedup = dedup;
    serve_at_1_and_4_threads(input, options, [&](const RunOutput& run) {
      const std::vector<std::string> records = split_records(run.records);
      ASSERT_EQ(records.size(), 2u);
      EXPECT_EQ(records[1], records[0]);
      EXPECT_EQ(run.summary.succeeded, 2u);
      EXPECT_EQ(run.summary.executed, dedup ? 1u : 2u);
      EXPECT_EQ(run.summary.memo_hits, dedup ? 1u : 0u);
      EXPECT_EQ(parse_samples(), 1u);
    });
  }
}

TEST(ServeCollapse, RepeatedNonFiniteCostFailsEachLine) {
  const std::string line = R"({"id":"tiny","solver":{"dt":1e-320}})" "\n";
  const std::string record =
      R"({"id":"tiny","ok":false,"error":"scenario request: estimated cost )"
      R"x(is not finite (solver.dt too small for the test lengths)"})x" "\n";
  serve_at_1_and_4_threads(line + line, {}, [&](const RunOutput& run) {
    EXPECT_EQ(run.records, record + record);
    EXPECT_EQ(run.summary.failed, 2u);
    EXPECT_EQ(run.summary.memo_hits, 0u);
    EXPECT_EQ(parse_samples(), 2u);
    EXPECT_EQ(counter("scenario.parse_errors"), 0u);  // it parsed
  });
}

TEST(ServeCollapse, DeadlineRepeatsEachCountInTheSlo) {
  const std::string line =
      R"({"id":"d","soc":{"kind":"fig1"},"stcl":40,"deadline_s":1000})" "\n";
  serve_at_1_and_4_threads(line + line + line, {}, [](const RunOutput& run) {
    EXPECT_EQ(run.summary.deadline_requests, 3u);
    EXPECT_EQ(run.summary.deadline_met, 3u);
    EXPECT_EQ(run.summary.deadline_missed, 0u);
    for (const RequestTiming& timing : run.summary.request_timings) {
      EXPECT_EQ(timing.deadline_s, 1000.0);
    }
    const JsonValue json = serve_summary_to_json(run.summary);
    EXPECT_EQ(json.find("slo")->find("deadline_requests")->as_number(), 3.0);
    EXPECT_EQ(run.summary.executed, 1u);
    EXPECT_EQ(run.summary.memo_hits, 2u);
  });
}

TEST(ServeCollapse, DedupOffStillExecutesEveryValidLine) {
  // Sharing a parse never shares an execution: dedup alone decides that.
  const std::string line = R"({"id":"r","soc":{"kind":"fig1"},"stcl":40})" "\n";
  const std::string input = line + "{oops\n" + line + line;
  ServeOptions on;
  const RunOutput reference = run_serve(input, on);
  ServeOptions off;
  off.dedup = false;
  serve_at_1_and_4_threads(input, off, [&](const RunOutput& run) {
    EXPECT_EQ(run.records, reference.records);
    EXPECT_EQ(run.summary.executed, 4u);
    EXPECT_EQ(run.summary.memo_hits, 0u);
    EXPECT_EQ(counter("scenario.run.stcl_sweep"), 3u);
    EXPECT_EQ(parse_samples(), 2u);
  });
  serve_at_1_and_4_threads(input, on, [&](const RunOutput& run) {
    EXPECT_EQ(run.records, reference.records);
    EXPECT_EQ(run.summary.executed, 2u);  // the first copy and "{oops"
    EXPECT_EQ(run.summary.memo_hits, 2u);
    EXPECT_EQ(counter("scenario.run.stcl_sweep"), 1u);
  });
}

TEST(ServeCollapse, SharedParsesMatchReparsedRepeats) {
  // The same gen stream served verbatim, and with every repeat re-spaced
  // ("{ " for "{") so that no line repeats byte for byte but every
  // canonical key is kept: bytes, memo hits, executions and disk hits
  // match, cold and warm.
  gen::GenConfig config;
  config.seed = 41;
  config.count = 300;
  config.zipf_skew = 3.0;
  config.dup_rate = 0.9;
  const gen::GeneratedStream stream = gen::generate_stream(config);
  ASSERT_GT(stream.stats.duplicates, 200u);
  std::string verbatim;
  std::string respaced;
  std::set<std::string> seen;
  for (const std::string& line : stream.lines) {
    verbatim += line + "\n";
    respaced += (seen.insert(line).second ? line : "{ " + line.substr(1)) + "\n";
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const thermo::testing::ScopedTempDir verbatim_dir(
        "verbatim-" + std::to_string(threads));
    const thermo::testing::ScopedTempDir respaced_dir(
        "respaced-" + std::to_string(threads));
    for (const char* pass : {"cold", "warm"}) {
      SCOPED_TRACE(pass);
      const auto serve = [&](const std::string& input, const std::string& dir) {
        dispatch::DiskResultMemo memo(dir);
        ServeOptions options;
        options.threads = threads;
        options.disk_memo = &memo;
        return run_serve(input, options);
      };
      const RunOutput shared = serve(verbatim, verbatim_dir.path());
      const RunOutput reparsed = serve(respaced, respaced_dir.path());
      EXPECT_EQ(shared.records, reparsed.records);
      EXPECT_EQ(shared.summary.succeeded, stream.stats.count);
      EXPECT_EQ(shared.summary.memo_hits, reparsed.summary.memo_hits);
      EXPECT_EQ(shared.summary.executed, reparsed.summary.executed);
      EXPECT_EQ(shared.summary.disk_hits, reparsed.summary.disk_hits);
      EXPECT_EQ(shared.summary.disk_records, reparsed.summary.disk_records);
    }
  }
}

// --- request lines are prepared on the worker pool -------------------

/// Everything serve reports that may not depend on the thread count:
/// the records, the summary's count objects, each request's facts, and
/// the parse counters.
struct ServeFacts {
  std::string records;
  std::string counts;    ///< requests, ok, failed and the count objects
  std::string requests;  ///< id, ok, memo_hit, cost, deadline_s per request
  std::uint64_t parse_samples = 0;
  std::uint64_t parse_errors = 0;
};

ServeFacts serve_facts(const std::string& input, const ServeOptions& options) {
  obs::MetricsRegistry::instance().reset();
  const RunOutput run = run_serve(input, options);
  ServeFacts facts;
  facts.records = run.records;
  const JsonValue json = serve_summary_to_json(run.summary);
  for (const char* key : {"requests", "ok", "failed", "memo", "slo",
                          "disk_cache", "model_cache"}) {
    facts.counts += std::string(key) + "=" + json.find(key)->dump() + "\n";
  }
  for (const JsonValue& timing : json.find("request_timings")->items()) {
    for (const char* key : {"id", "ok", "memo_hit", "cost", "deadline_s"}) {
      if (const JsonValue* value = timing.find(key)) {
        facts.requests += value->dump();
      }
      facts.requests += ",";
    }
    facts.requests += "\n";
  }
  facts.parse_samples = parse_samples();
  facts.parse_errors = counter("scenario.parse_errors");
  return facts;
}

void expect_same_facts(const ServeFacts& run, const ServeFacts& reference) {
  EXPECT_EQ(run.records, reference.records);
  EXPECT_EQ(run.counts, reference.counts);
  EXPECT_EQ(run.requests, reference.requests);
  EXPECT_EQ(run.parse_samples, reference.parse_samples);
  EXPECT_EQ(run.parse_errors, reference.parse_errors);
}

/// The ServeCollapse cases in one stream: id-less, malformed, CRLF,
/// non-finite-cost and deadline repeats, interleaved with blank lines.
std::string edge_case_stream() {
  const std::string anonymous = R"({"soc":{"kind":"fig1"},"stcl":40})";
  const std::string broken = "{oops";
  const std::string invalid = R"({"id":"bad","tl":-40})";
  const std::string shared = R"({"id":"x","soc":{"kind":"fig1"},"stcl":40})";
  const std::string tiny = R"({"id":"tiny","solver":{"dt":1e-320}})";
  const std::string deadline =
      R"({"id":"d","soc":{"kind":"fig1"},"stcl":40,"deadline_s":1000})";
  std::string input;
  for (int round = 0; round < 3; ++round) {
    input += anonymous + "\n" + broken + "\n" + shared + "\r\n" + invalid +
             "\n\n" + tiny + "\n" + deadline + "\n" + shared + "\n";
  }
  return input;
}

/// A 300-line gen stream with repeats and the default kind mix.
std::string gen_stream_300() {
  gen::GenConfig config;
  config.seed = 43;
  config.count = 300;
  config.zipf_skew = 3.0;
  config.dup_rate = 0.3;
  std::string input;
  for (const std::string& line : gen::generate_stream(config).lines) {
    input += line + "\n";
  }
  return input;
}

TEST(ServeParallelPrepare, EveryThreadCountMatchesTheInlineRun) {
  for (const std::string& input : {edge_case_stream(), gen_stream_300()}) {
    for (const bool dedup : {true, false}) {
      SCOPED_TRACE(dedup ? "dedup on" : "dedup off");
      ServeOptions options;
      options.dedup = dedup;
      options.threads = 1;
      const ServeFacts inline_run = serve_facts(input, options);
      ASSERT_FALSE(inline_run.records.empty());
      for (const std::size_t threads : {2, 3, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        options.threads = threads;
        expect_same_facts(serve_facts(input, options), inline_run);
      }
    }
  }
}

TEST(ServeParallelPrepare, ManyIdlessCopiesEachKeepTheirLineNumber) {
  const std::string line = R"({"soc":{"kind":"fig1"},"stcl":40})" "\n";
  std::string input;
  for (int i = 0; i < 2000; ++i) input += line;
  ServeOptions options;
  options.threads = 4;
  const ServeFacts run = serve_facts(input, options);
  const std::vector<std::string> records = split_records(run.records);
  ASSERT_EQ(records.size(), 2000u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string head = "{\"id\":\"line-" + std::to_string(i + 1) + "\"";
    ASSERT_EQ(records[i].rfind(head, 0), 0u) << records[i];
  }
  EXPECT_EQ(run.parse_samples, 2000u);
  EXPECT_EQ(run.parse_errors, 0u);
}

TEST(ServeParallelPrepare, BatchesSmallerThanThePool) {
  const std::string a = R"({"id":"a","soc":{"kind":"fig1"},"stcl":40})" "\n";
  const std::string b = R"({"soc":{"kind":"fig1"},"stcl":45})" "\n";
  for (const std::string& input : {a, a + "{oops\n" + b}) {
    ServeOptions options;
    options.threads = 1;
    const ServeFacts inline_run = serve_facts(input, options);
    options.threads = 8;
    expect_same_facts(serve_facts(input, options), inline_run);
  }
}

TEST(ServeDispatch, SummaryJsonSchemaAndCounts) {
  ServeOptions options;
  options.threads = 2;
  options.policy = dispatch::SchedulePolicy::kLjf;
  const RunOutput run = run_serve(mixed_batch(), options);
  const JsonValue json = serve_summary_to_json(run.summary);
  EXPECT_EQ(json.find("schema")->as_string(), "thermo.serve_summary.v2");
  EXPECT_EQ(json.find("requests")->as_number(), 50.0);
  EXPECT_EQ(json.find("ok")->as_number(), 46.0);
  EXPECT_EQ(json.find("failed")->as_number(), 4.0);
  EXPECT_EQ(json.find("policy")->as_string(), "ljf");
  EXPECT_TRUE(json.find("dedup")->as_bool());
  EXPECT_GT(json.find("makespan_s")->as_number(), 0.0);
  ASSERT_NE(json.find("memo"), nullptr);
  EXPECT_EQ(json.find("memo")->find("executed")->as_number(), 50.0);
  ASSERT_NE(json.find("tail"), nullptr);
  EXPECT_GT(json.find("tail")->find("slowest_wall_s")->as_number(), 0.0);
  ASSERT_NE(json.find("tail")->find("p95_wall_s"), nullptr);
  ASSERT_NE(json.find("model_cache"), nullptr);
  const JsonValue* timings = json.find("request_timings");
  ASSERT_NE(timings, nullptr);
  ASSERT_EQ(timings->items().size(), 50u);
  EXPECT_EQ(timings->items()[0].find("id")->as_string(),
            run.summary.request_timings[0].id);
  // The payload must round-trip through the serializer (finite numbers,
  // valid structure).
  EXPECT_FALSE(json.dump().empty());
}

/// A synthetic sweep request of `cores` cores whose tests all last
/// `test_length` seconds.
ScenarioRequest synthetic_request(std::size_t cores, double test_length) {
  ScenarioRequest r;
  r.soc.kind = SocKind::kSynthetic;
  r.soc.synthetic.cores = cores;
  r.soc.synthetic.test_length_min = test_length;
  r.soc.synthetic.test_length_max = test_length;
  return r;
}

TEST(RequestCost, DefaultFormulaIsPinned) {
  // Steady, 3 STCL points, 6 cores: 16 nodes, so nnz(L) is predicted as
  // 16 * (4 + log2 16) = 128, and 1000 per request
  //   + 3 points * (2 validations/core * 6 cores)
  //   * (1 solve * 128 ops + 50 per call) = 7408, exactly.
  ScenarioRequest steady = synthetic_request(6, 1.0);
  steady.solver.transient = false;
  steady.stcl.min = 40.0;
  steady.stcl.max = 60.0;
  steady.stcl.step = 10.0;
  ASSERT_EQ(steady.stcl.values().size(), 3u);
  EXPECT_EQ(estimate_request_cost(steady), 7408.0);

  // Transient, one point, 1.25 s tests at dt 0.125: 10 steps per call,
  // so 1000 + 1 point * 12 calls * (10 steps * 128 + 50) = 16960.
  ScenarioRequest transient = synthetic_request(6, 1.25);
  transient.solver.transient = true;
  transient.solver.dt = 0.125;
  EXPECT_EQ(estimate_request_cost(transient), 16960.0);
}

TEST(RequestCost, MonotoneInEveryFeature) {
  ScenarioRequest base = synthetic_request(15, 1.0);
  base.solver.transient = true;
  base.solver.dt = 1e-3;  // 1000 steps per call
  const double reference = estimate_request_cost(base);
  EXPECT_GT(reference, 0.0);

  ScenarioRequest more = base;  // more cores: more nodes and validations
  more.soc.synthetic.cores = 150;
  EXPECT_GT(estimate_request_cost(more), reference);
  more = base;  // longer tests: more steps per call
  more.soc.synthetic.test_length_max = 19.0;
  EXPECT_GT(estimate_request_cost(more), reference);
  more = base;  // a finer step: more steps per call
  more.solver.dt = 1e-4;
  EXPECT_GT(estimate_request_cost(more), reference);
  more = base;  // an STCL span: more Algorithm 1 runs
  more.stcl.min = 20.0;
  more.stcl.max = 100.0;
  more.stcl.step = 10.0;
  EXPECT_GT(estimate_request_cost(more), reference);

  // A grid request's nodes are its cells: a finer grid costs more.
  ScenarioRequest grid;
  grid.kind = RequestKind::kGridSteady;
  grid.soc.kind = SocKind::kFig1;
  grid.grid.rows = 16;
  grid.grid.cols = 16;
  ScenarioRequest finer = grid;
  finer.grid.rows = 32;
  EXPECT_GT(estimate_request_cost(finer), estimate_request_cost(grid));
}

TEST(RequestCost, SteadyIsCheaperThanTransientAndSparseScalesLinearly) {
  ScenarioRequest transient = synthetic_request(1024, 1.0);
  transient.solver.transient = true;
  ScenarioRequest steady = transient;
  steady.solver.transient = false;
  EXPECT_LT(estimate_request_cost(steady), estimate_request_cost(transient));

  // Per-solve cost is the factor's nnz ≈ n·(4 + log2 n): doubling a
  // grid's node count (one solve, so nodes are the only factor) slightly
  // more than doubles the estimate, far from the 4× a dense n² term
  // would give.
  ScenarioRequest grid;
  grid.kind = RequestKind::kGridSteady;
  grid.soc.kind = SocKind::kFig1;
  grid.grid.rows = 64;
  grid.grid.cols = 64;
  ScenarioRequest doubled = grid;
  doubled.grid.rows = 128;
  const double ratio =
      estimate_request_cost(doubled) / estimate_request_cost(grid);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 2.5);
}

TEST(RequestCost, RanksTheWhaleAboveTheMinnow) {
  ScenarioRequest minnow;  // default: alpha, single STCL, transient
  ScenarioRequest whale;
  whale.soc.kind = SocKind::kSynthetic;
  whale.soc.synthetic.cores = 1024;
  whale.solver.transient = false;
  const double minnow_cost = estimate_request_cost(minnow);
  const double whale_cost = estimate_request_cost(whale);
  EXPECT_GT(whale_cost, minnow_cost);

  // The whale: 1024 cores + 10 package nodes = 1034 nodes, steady (one
  // solve per call), one point, 2048 validations.
  const double whale_nnz = 1034.0 * (4.0 + std::log2(1034.0));
  EXPECT_EQ(whale_cost, 1000.0 + 2048.0 * (1.0 * whale_nnz + 50.0));
  // The minnow: Alpha's 15 cores + 10 = 25 nodes, transient 1 s tests at
  // the default dt of 1 ms (1000 steps per call), one point, 30 calls.
  const double minnow_nnz = 25.0 * (4.0 + std::log2(25.0));
  EXPECT_EQ(minnow_cost, 1000.0 + 30.0 * (1000.0 * minnow_nnz + 50.0));

  // An STCL range multiplies the estimate.
  ScenarioRequest span = minnow;
  span.stcl.min = 20.0;
  span.stcl.max = 100.0;
  span.stcl.step = 10.0;
  EXPECT_GT(estimate_request_cost(span), 5.0 * minnow_cost);
}

}  // namespace
}  // namespace thermo::scenario
