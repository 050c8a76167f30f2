// SLO-aware serving end to end: a seeded `gen` stream with deadlines
// attached (--deadline-rate) flows through serve_stream, and the
// deadline scoreboard must be exactly predictable because the generator
// only ever draws two machine-independent deadline values:
//
//   * kTightDeadlineS (1e-7 s)  — any request that actually executes
//     (or inherits a within-batch leader's completion time) misses it
//     on every machine;
//   * kGenerousDeadlineS (1e6 s) — nobody misses it.
//
// So on a cold serve, missed == tight-deadlined lines and met ==
// generous-deadlined lines, byte for byte, with no timing tolerance
// anywhere. The one documented exception closes the loop: a warm-memo
// re-serve answers every request at planning time (done_seconds = 0),
// so even the tight deadlines read as met — cache hits are "instant".
//
// The other half of this file is the hard serve invariant extended to
// the new machinery: output bytes identical across {1,4} threads ×
// all five registered policies, on the SAME deadlined stream.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dispatch/disk_result_memo.hpp"
#include "dispatch/execution_order.hpp"
#include "gen/generator.hpp"
#include "scenario/request.hpp"
#include "scenario/serve.hpp"
#include "util/json.hpp"
#include "persist_test_util.hpp"

namespace thermo::scenario {
namespace {

/// The canonical deadlined stream: small sizes (zipf 1.5 keeps whales
/// away so the 10-config sweep stays fast), duplicates in the mix so
/// within-batch inheritance is exercised, half the fresh lines
/// deadlined.
gen::GeneratedStream deadlined_stream() {
  gen::GenConfig config;
  config.seed = 31;
  config.count = 30;
  config.dup_rate = 0.25;
  config.zipf_skew = 1.5;
  config.deadline_rate = 0.5;
  return gen::generate_stream(config);
}

std::string stream_text(const gen::GeneratedStream& stream) {
  std::string text;
  for (const std::string& line : stream.lines) {
    text += line;
    text += '\n';
  }
  return text;
}

struct RunOutput {
  std::string records;
  ServeSummary summary;
};

RunOutput run_serve(const std::string& input, const ServeOptions& options,
                    ScenarioRunner& runner) {
  std::istringstream in(input);
  std::ostringstream out;
  const ServeSummary summary = serve_stream(in, out, runner, options);
  return RunOutput{out.str(), summary};
}

TEST(ServeSlo, ColdServeMissesExactlyTheTightDeadlines) {
  const gen::GeneratedStream stream = deadlined_stream();
  std::size_t tight = 0;
  std::size_t generous = 0;
  for (const std::string& line : stream.lines) {
    const double deadline = parse_request_line(line).deadline_s;
    if (deadline == gen::kTightDeadlineS) ++tight;
    if (deadline == gen::kGenerousDeadlineS) ++generous;
  }
  ASSERT_GT(tight, 0u);
  ASSERT_GT(generous, 0u);
  ASSERT_EQ(tight + generous, stream.stats.deadlined);

  ScenarioRunner runner;
  ServeOptions options;
  options.threads = 2;
  const RunOutput run = run_serve(stream_text(stream), options, runner);
  EXPECT_EQ(run.summary.requests, stream.lines.size());
  EXPECT_EQ(run.summary.failed, 0u);
  // The pinned scoreboard: every tight line misses (executed leaders
  // measure real wall time >> 1e-7; within-batch duplicates inherit the
  // leader's completion offset), every generous line is met.
  EXPECT_EQ(run.summary.deadline_requests, tight + generous);
  EXPECT_EQ(run.summary.deadline_missed, tight);
  EXPECT_EQ(run.summary.deadline_met, generous);

  // Per-timing agreement with the aggregate counters.
  std::size_t missed = 0;
  for (const RequestTiming& timing : run.summary.request_timings) {
    if (timing.deadline_s > 0.0 && !timing.deadline_met) {
      ++missed;
      EXPECT_EQ(timing.deadline_s, gen::kTightDeadlineS);
      EXPECT_GT(timing.done_seconds, timing.deadline_s);
    }
  }
  EXPECT_EQ(missed, run.summary.deadline_missed);
}

TEST(ServeSlo, WarmMemoReServeMeetsEverythingIncludingTightDeadlines) {
  const std::string input = stream_text(deadlined_stream());
  ScenarioRunner runner;
  const thermo::testing::ScopedTempDir dir("slo-memo");
  dispatch::DiskResultMemo memo(dir.path());
  ServeOptions options;
  options.threads = 2;
  options.disk_memo = &memo;
  const RunOutput cold = run_serve(input, options, runner);
  ASSERT_GT(cold.summary.deadline_missed, 0u);
  const RunOutput warm = run_serve(input, options, runner);
  // Identical bytes, but every request is a planning-time memo hit:
  // done_seconds is 0, so even the tight deadlines are met — an
  // "instant" answer cannot miss an SLO.
  EXPECT_EQ(warm.records, cold.records);
  EXPECT_EQ(warm.summary.executed, 0u);
  EXPECT_EQ(warm.summary.deadline_requests, cold.summary.deadline_requests);
  EXPECT_EQ(warm.summary.deadline_missed, 0u);
  EXPECT_EQ(warm.summary.deadline_met, warm.summary.deadline_requests);
}

TEST(ServeSlo, ByteIdenticalAcrossThreadsAndPolicies) {
  const std::string input = stream_text(deadlined_stream());
  ScenarioRunner runner;  // shared: the model cache never changes bytes
  ServeOptions reference_options;
  reference_options.threads = 1;
  const RunOutput reference = run_serve(input, reference_options, runner);
  ASSERT_EQ(reference.summary.failed, 0u);

  for (const dispatch::SchedulePolicy policy :
       {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kLjf,
        dispatch::SchedulePolicy::kEdf}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ServeOptions options;
      options.policy = policy;
      options.threads = threads;
      const RunOutput run = run_serve(input, options, runner);
      EXPECT_EQ(run.records, reference.records)
          << "policy=" << dispatch::schedule_policy_name(policy)
          << " threads=" << threads;
      EXPECT_EQ(run.summary.deadline_missed, reference.summary.deadline_missed)
          << "policy=" << dispatch::schedule_policy_name(policy)
          << " threads=" << threads;
    }
  }
}

TEST(ServeSlo, SummaryJsonCarriesSloSectionInSchemaV2) {
  const std::string input = stream_text(deadlined_stream());
  ScenarioRunner runner;
  ServeOptions options;
  options.threads = 1;
  const RunOutput run = run_serve(input, options, runner);
  const std::string json = serve_summary_to_json(run.summary).dump();
  // v2 dropped v1's calibration object; the slo section is unchanged.
  EXPECT_NE(json.find("\"schema\":\"thermo.serve_summary.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"slo\":{\"deadline_requests\":"), std::string::npos);
  EXPECT_EQ(json.find("\"calibration\""), std::string::npos);
  EXPECT_NE(json.find("\"done_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_met\":"), std::string::npos);
}

}  // namespace
}  // namespace thermo::scenario
