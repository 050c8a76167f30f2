// Observability through the serve pipeline: tracing and metrics may
// never change the output bytes — {trace on,off} x {1,4} threads must
// be byte-identical — and when they record, they record *exactly*: the
// registry's counters must equal the summary's own stats (memo hits ==
// the generator's duplicate count under every placement), and the
// per-request queue_wait_s must ride the summary JSON additively.
#include "scenario/serve.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "gen_test_util.hpp"
#include "util/json.hpp"

namespace thermo::scenario {
namespace {

/// 20 generated requests followed by the same 20 lines again: with
/// dedup on, the second half must be answered from the memo (20 exact
/// hits).
std::string duplicated_batch() {
  std::string half;
  for (const std::string& line : testing::small_gen_lines(20, 7)) {
    half += line + "\n";
  }
  return half + half;
}

std::string run_serve(const std::string& input, const ServeOptions& options,
                      ServeSummary* summary_out = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  ScenarioRunner runner;
  const ServeSummary summary = serve_stream(in, out, runner, options);
  if (summary_out != nullptr) *summary_out = summary;
  return out.str();
}

std::string run_serve(const std::string& input, std::size_t threads,
                      ServeSummary* summary_out = nullptr) {
  ServeOptions options;
  options.threads = threads;
  return run_serve(input, options, summary_out);
}

TEST(ObsServe, TracingNeverChangesOutputBytes) {
  const std::string input = duplicated_batch();
  const std::string reference = run_serve(input, 1);
  ASSERT_FALSE(reference.empty());

  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // Untraced.
    EXPECT_EQ(run_serve(input, threads), reference)
        << "threads=" << threads << " trace=off";
    // Traced.
    recorder.start();
    const std::string traced = run_serve(input, threads);
    recorder.stop();
    EXPECT_EQ(traced, reference) << "threads=" << threads << " trace=on";
    // And the trace the run produced must be non-trivial: spans from
    // serve, dispatch, and the scenario runner all fire per request.
    const JsonValue snapshot = recorder.snapshot_json();
    const JsonValue* events = snapshot.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->items().size(), 40u);
    const std::string dumped = snapshot.dump();
    EXPECT_NE(dumped.find("serve.batch"), std::string::npos);
    EXPECT_NE(dumped.find("dispatch.exec"), std::string::npos);
  }
}

TEST(ObsServe, MetricsDisabledChangesNothingButTheCounts) {
  const std::string input = duplicated_batch();
  const std::string reference = run_serve(input, 2);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  obs::set_enabled(false);
  const std::string disabled = run_serve(input, 2);
  obs::set_enabled(true);
  EXPECT_EQ(disabled, reference);
  EXPECT_EQ(registry.counter("scenario.requests").value(), 0u);
}

TEST(ObsServe, CountersExactlyMatchSummaryStats) {
  // Two inputs: the 20+20 duplicated batch, and a shuffled gen stream
  // with duplicates whose generator reports the duplicate count. Fresh
  // lines carry unique ids, so the memo can hit only on verbatim copies:
  // memo hits == duplicates, exactly, under every placement.
  gen::GenConfig config;
  config.seed = 23;
  config.count = 200;
  config.zipf_skew = 3.0;
  config.dup_rate = 0.3;
  config.order = gen::OrderPattern::kShuffled;
  const gen::GeneratedStream stream = gen::generate_stream(config);
  std::string generated;
  for (const std::string& line : stream.lines) generated += line + "\n";
  ASSERT_GT(stream.stats.duplicates, 0u);
  const struct {
    std::string input;
    std::size_t requests;
    std::size_t duplicates;
  } cases[] = {{duplicated_batch(), 40, 20},
               {generated, stream.stats.count, stream.stats.duplicates}};

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  for (const auto& c : cases) {
    const std::string reference = run_serve(c.input, 1);
    for (const dispatch::SchedulePolicy policy :
         {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kLjf}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(std::string("requests=") + std::to_string(c.requests) +
                     " policy=" + dispatch::schedule_policy_name(policy) +
                     " threads=" + std::to_string(threads));
        ServeOptions options;
        options.threads = threads;
        options.policy = policy;
        registry.reset();
        ServeSummary summary;
        EXPECT_EQ(run_serve(c.input, options, &summary), reference);

        EXPECT_EQ(summary.requests, c.requests);
        EXPECT_EQ(summary.failed, 0u);
        EXPECT_EQ(summary.memo_hits, c.duplicates);
        // The registry saw exactly what the summary reports — same
        // events, counted at different layers.
        EXPECT_EQ(registry.counter("scenario.requests").value(),
                  summary.requests);
        EXPECT_EQ(registry.counter("dispatch.memo_hits").value(),
                  summary.memo_hits);
        EXPECT_EQ(registry.counter("dispatch.executed").value(),
                  summary.executed);
        EXPECT_EQ(registry.counter("dispatch.batches").value(), 1u);
        // Executed requests each record one exec + one queue-wait sample.
        EXPECT_EQ(registry.histogram("dispatch.exec_ns").count(),
                  summary.executed);
        EXPECT_EQ(registry.histogram("dispatch.queue_wait_ns").count(),
                  summary.executed);

        // Dedup off writes the same bytes.
        options.dedup = false;
        EXPECT_EQ(run_serve(c.input, options), reference);
      }
    }
  }
}

TEST(ObsServe, QueueWaitRidesTheSummaryJson) {
  const std::string input = duplicated_batch();
  ServeSummary summary;
  run_serve(input, 2, &summary);
  ASSERT_EQ(summary.request_timings.size(), 40u);
  for (const RequestTiming& timing : summary.request_timings) {
    EXPECT_GE(timing.queue_wait_seconds, 0.0);
    // Memo hits never waited in the execution queue.
    if (timing.memo_hit) {
      EXPECT_EQ(timing.queue_wait_seconds, 0.0);
    }
  }

  const JsonValue json = serve_summary_to_json(summary);
  const JsonValue* timings = json.find("request_timings");
  ASSERT_NE(timings, nullptr);
  ASSERT_EQ(timings->items().size(), 40u);
  for (const JsonValue& entry : timings->items()) {
    const JsonValue* wait = entry.find("queue_wait_s");
    ASSERT_NE(wait, nullptr);
    EXPECT_GE(wait->as_number(), 0.0);
  }
  // The summary carries the process-wide metrics snapshot additively.
  const JsonValue* metrics = json.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("counters"), nullptr);
  EXPECT_NE(metrics->find("histograms"), nullptr);
}

}  // namespace
}  // namespace thermo::scenario
