// The runner's prepared entries: each geometry's SoC, RC network,
// session model, symbolic analysis and G factor are built once per
// batch, whatever the power corners, oracles and threads asking for
// them, while a request whose SoC cannot be built still fails on its own
// line with the exact bytes of a fresh build.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "scenario/serve.hpp"
#include "test_helpers.hpp"

namespace thermo::scenario {
namespace {

using thermo::testing::factorizations;

struct Served {
  std::string records;
  ServeSummary summary;
};

Served serve(const std::string& input, std::size_t threads,
             ScenarioRunner& runner) {
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions options;
  options.threads = threads;
  const ServeSummary summary = serve_stream(in, out, runner, options);
  return Served{out.str(), summary};
}

Served serve(const std::string& input, std::size_t threads) {
  ScenarioRunner runner;
  return serve(input, threads, runner);
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

// Every factor, SoC and session model the stream needs is built exactly
// once: factorizations equal the distinct (geometry, G or dt) keys, so
// no factor is evicted and needed again; SoC builds equal the distinct
// selectors ignoring power_scale; prepared models (one session model
// each) equal the distinct geometries.
TEST(PreparedModels, GenStreamBuildsEachPartOnce) {
  gen::GenConfig config;
  config.seed = 7;
  config.count = 1500;
  config.dup_rate = 0.3;
  config.zipf_skew = 1.5;
  std::string input;
  std::set<std::pair<std::string, double>> factor_keys;  // dt 0: G
  std::set<std::string> geometries;
  std::vector<SocSelector> socs;
  for (const std::string& line : gen::generate_stream(config).lines) {
    input += line + "\n";
    const ScenarioRequest request = parse_request_line(line);
    const std::string geometry = request.soc.geometry_key();
    geometries.insert(geometry);
    SocSelector unscaled = request.soc;
    unscaled.power_scale = 1.0;
    if (std::find(socs.begin(), socs.end(), unscaled) == socs.end()) {
      socs.push_back(unscaled);
    }
    const bool steady = request.kind != RequestKind::kPtrace &&
                        !request.solver.transient;
    factor_keys.emplace(geometry, steady ? 0.0 : request.solver.dt);
    if (request.kind == RequestKind::kChained) {
      factor_keys.emplace(geometry, request.solver.dt);  // chained replay
    }
  }

  const std::uint64_t factored_before = factorizations();
  const Served run = serve(input, 1);
  ASSERT_EQ(run.summary.failed, 0u);
  EXPECT_EQ(factorizations() - factored_before, factor_keys.size());
  EXPECT_EQ(run.summary.runner.soc_builds, socs.size());
  EXPECT_EQ(run.summary.runner.model_misses, geometries.size());
  EXPECT_EQ(run.summary.runner.model_hits + run.summary.runner.model_misses,
            run.summary.executed);
}

std::uint64_t samples(const char* histogram) {
  return obs::MetricsRegistry::instance().histogram(histogram).count();
}

// Every model the runner builds, block or grid, is analyzed once, by its
// first factorization, and each model the stream builds is factored:
// one `thermal.symbolic_ns` sample per `scenario.model_build_ns` sample,
// at 4 threads racing for the same models.
TEST(PreparedModels, OneSymbolicAnalysisPerModelBuilt) {
  gen::GenConfig config;
  config.seed = 11;
  config.count = 300;
  config.dup_rate = 0.3;
  config.mix.grid = 0.02;
  std::string input;
  std::size_t grids = 0;
  for (const std::string& line : gen::generate_stream(config).lines) {
    input += line + "\n";
    grids += parse_request_line(line).kind == RequestKind::kGridSteady;
  }
  ASSERT_GT(grids, 0u);
  const std::uint64_t analyses = samples("thermal.symbolic_ns");
  const std::uint64_t builds = samples("scenario.model_build_ns");
  const Served run = serve(input, 4);
  ASSERT_EQ(run.summary.failed, 0u);
  EXPECT_GT(samples("scenario.model_build_ns"), builds + 1);
  EXPECT_EQ(samples("thermal.symbolic_ns") - analyses,
            samples("scenario.model_build_ns") - builds);
}

// A steady run never asks the solver cache for anything: the entry's
// model factors G once, on its first steady request, however many
// table reads and validation solves follow.
TEST(PreparedModels, SteadySolvesDoNotLookUpTheFactor) {
  std::string input;
  for (const char* scale : {"1", "1.2", "1.4"}) {
    input += std::string(R"({"soc":{"kind":"synthetic","seed":5,"cores":64,)") +
             R"("power_scale":)" + scale +
             R"(},"tl":400,"stcl":{"min":60,"max":90,"step":10},)" +
             R"("solver":{"transient":false}})" + "\n";
  }
  const auto lookups = [] {
    return counter("thermal.solver_cache.hits") +
           counter("thermal.solver_cache.misses");
  };
  const std::uint64_t lookups_before = lookups();
  const std::uint64_t factored_before = factorizations();
  const std::uint64_t solves_before =
      counter("thermal.solo_lookups") + counter("thermal.solves");
  const Served run = serve(input, 4);
  ASSERT_EQ(run.summary.succeeded, 3u);
  EXPECT_EQ(lookups() - lookups_before, 0u);
  EXPECT_EQ(factorizations() - factored_before, 1u);
  EXPECT_GT(counter("thermal.solo_lookups") + counter("thermal.solves") -
                solves_before,
            3u * 64u);
}

// A grid's factor lives with its grid model, not in the solver cache's
// LRU: 40 transient requests at distinct steps on another geometry (40
// stepper keys, more than the cache holds) leave it in place, so the
// same grid request served again factors nothing.
TEST(PreparedModels, GridFactorsSurviveStepperChurn) {
  const std::string grid =
      R"({"kind":"grid_steady","soc":{"kind":"fig1"},"grid":{"rows":24,"cols":24}})"
      "\n";
  std::string churn;
  for (int i = 1; i <= 40; ++i) {
    churn += R"({"soc":{"kind":"synthetic","seed":9,"cores":8},"tl":400,)"
             R"("stcl":90,"solver":{"dt":)" +
             std::to_string(0.01 + 0.0001 * i) + "}}\n";
  }
  ScenarioRunner runner;
  const Served first = serve(grid, 1, runner);
  ASSERT_EQ(first.summary.succeeded, 1u);
  const std::uint64_t stepper_misses = counter("thermal.solver_cache.misses");
  ASSERT_EQ(serve(churn, 1, runner).summary.succeeded, 40u);
  ASSERT_GE(counter("thermal.solver_cache.misses") - stepper_misses, 40u);
  const std::uint64_t factored_before = factorizations();
  const Served again = serve(grid, 1, runner);
  EXPECT_EQ(again.records, first.records);
  EXPECT_EQ(factorizations() - factored_before, 0u);
}

// A geometry's grid models live in its entry: another power corner on
// the same discretisation reuses the grid, another discretisation
// builds its own, and once kMaxCachedModels other geometries have
// evicted fig1 its grid goes with it, so the first request builds it
// again and gets the same bytes.
TEST(PreparedModels, GridModelsLiveAndDieWithTheirGeometry) {
  const auto grid = [](int side, const char* scale) {
    return std::string(
               R"({"kind":"grid_steady","soc":{"kind":"fig1","power_scale":)") +
           scale + R"(},"grid":{"rows":)" + std::to_string(side) +
           R"(,"cols":)" + std::to_string(side) + "}}\n";
  };
  ScenarioRunner runner;
  const Served first = serve(grid(24, "1"), 1, runner);
  ASSERT_EQ(first.summary.succeeded, 1u);
  EXPECT_EQ(runner.stats().model_misses, 1u);
  ASSERT_EQ(serve(grid(24, "1.2"), 1, runner).summary.succeeded, 1u);
  EXPECT_EQ(runner.stats().model_hits, 1u);
  ASSERT_EQ(serve(grid(32, "1"), 1, runner).summary.succeeded, 1u);
  EXPECT_EQ(runner.stats().model_misses, 2u);

  std::string sweeps;
  for (std::size_t seed = 1; seed <= ScenarioRunner::kMaxCachedModels;
       ++seed) {
    sweeps += R"({"soc":{"kind":"synthetic","seed":)" + std::to_string(seed) +
              R"(,"cores":8},"tl":400,"stcl":90})" "\n";
  }
  ASSERT_EQ(serve(sweeps, 1, runner).summary.succeeded,
            ScenarioRunner::kMaxCachedModels);
  EXPECT_EQ(runner.stats().model_misses, ScenarioRunner::kMaxCachedModels + 2);

  const Served again = serve(grid(24, "1"), 1, runner);
  EXPECT_EQ(runner.stats().model_misses, ScenarioRunner::kMaxCachedModels + 3);
  EXPECT_EQ(runner.stats().model_hits, 1u);
  EXPECT_EQ(again.records, first.records);
}

// The exact ok:false bytes of a fresh build: a power_scale that
// overflows a core's power fails on its own line even though its SoC
// is cached, and a missing .flp fails every time it appears, since a
// failed build is never cached.
TEST(PreparedModels, FailedSocsKeepTheirErrorBytes) {
  const std::string input =
      R"({"id":"alpha","soc":{"kind":"alpha","power_scale":1.5},"tl":155,"stcl":50})" "\n"
      R"({"id":"overflow","soc":{"kind":"alpha","power_scale":1e308},"tl":155,"stcl":50})" "\n"
      R"({"id":"missing-a","soc":{"kind":"flp","path":"no_such_dir/missing.flp"},"tl":155,"stcl":50})" "\n"
      R"({"id":"overflow-syn","soc":{"kind":"synthetic","seed":5,"cores":300,"power_scale":1e308},"tl":400,"stcl":90,"solver":{"transient":false}})" "\n"
      R"({"id":"missing-b","soc":{"kind":"flp","path":"no_such_dir/missing.flp"},"tl":155,"stcl":50})" "\n";
  const std::string power_error =
      R"(precondition failed [std::isfinite(tests[i].power) && tests[i].power >= 0.0]: )";
  const std::vector<std::string> failed = {
      R"({"id":"overflow","ok":false,"error":")" + power_error +
          R"(core 'L2_0': test power must be finite and non-negative"})",
      R"({"id":"missing-a","ok":false,"error":"cannot open floorplan file 'no_such_dir/missing.flp'"})",
      R"({"id":"overflow-syn","ok":false,"error":")" + power_error +
          R"(core 'c2': test power must be finite and non-negative"})",
      R"({"id":"missing-b","ok":false,"error":"cannot open floorplan file 'no_such_dir/missing.flp'"})"};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const Served run = serve(input, threads);
    std::vector<std::string> records;
    std::istringstream lines(run.records);
    for (std::string line; std::getline(lines, line);) {
      records.push_back(line);
    }
    ASSERT_EQ(records.size(), 5u);
    EXPECT_NE(records[0].find(R"("ok":true)"), std::string::npos);
    EXPECT_EQ(std::vector<std::string>(records.begin() + 1, records.end()),
              failed)
        << threads << " threads";
    // The overflow line failed before reaching the (cached) model.
    EXPECT_EQ(run.summary.runner.model_misses, 1u);
    EXPECT_EQ(run.summary.runner.model_hits, 0u);
  }
}

// One SoC at several power corners under both oracles, served together
// on 4 threads through one prepared entry, gives each line's bytes
// from serving it alone.
TEST(PreparedModels, PowerCornersServeLikeLinesAlone) {
  std::vector<std::string> lines;
  for (const char* scale : {"0.8", "1", "1.25", "1.6"}) {
    for (const char* transient : {"true", "false"}) {
      lines.push_back(
          std::string(R"({"id":"s)") + scale + "-" + transient +
          R"(","soc":{"kind":"synthetic","seed":11,"cores":34,"power_scale":)" +
          scale + R"(},"tl":150,"stcl":{"min":40,"max":80,"step":20},)" +
          R"("solver":{"dt":0.01,"transient":)" + transient + "}}");
    }
  }
  lines.push_back(
      R"({"id":"chained","kind":"chained","soc":{"kind":"synthetic","seed":11,"cores":34,"power_scale":1.1},"tl":150,"stcl":60,"solver":{"dt":0.01,"transient":false}})");
  std::string input;
  std::string alone;
  for (const std::string& line : lines) {
    input += line + "\n";
    alone += serve(line + "\n", 1).records;
  }
  ScenarioRunner runner;
  const Served together = serve(input, 4, runner);
  EXPECT_EQ(together.records, alone);
  EXPECT_EQ(together.summary.succeeded, lines.size());
  EXPECT_EQ(runner.stats().model_misses, 1u);
  EXPECT_EQ(runner.stats().soc_builds, 1u);
}

// The transient oracle's unit-step responses are stored per model up to
// thermal::StepResponseTable::kMaxBytes; past that a response is
// computed without being stored, with the same bits. So a runner whose
// models' tables are already full serves a transient stream with the
// bytes of a fresh runner, and its tables do not grow.
TEST(PreparedModels, RecordsPastTheResponseCapEqualRecordsUnderIt) {
  const std::string synthetic =
      R"("soc":{"kind":"synthetic","seed":5,"cores":34,"test_length_min":0.0137,"test_length_max":0.0561,"power_scale":)";
  std::string input;
  for (const char* scale : {"1", "1.3"}) {
    input += std::string(R"({"id":"syn-)") + scale + "\"," + synthetic +
             scale + R"(},"tl":150,"stcl":{"min":40,"max":120,"step":40},)" +
             R"("solver":{"dt":0.001,"transient":true}})" + "\n";
  }
  input +=
      R"({"id":"alpha","soc":{"kind":"alpha"},"tl":150,"stcl":{"min":30,"max":50,"step":20},"solver":{"dt":0.01,"transient":true}})"
      "\n";
  using thermal::StepResponseTable;
  ScenarioRunner full;
  std::vector<std::shared_ptr<const thermal::RCModel>> models;
  std::istringstream lines(input);
  for (std::string line; std::getline(lines, line);) {
    const ScenarioRequest request = parse_request_line(line);
    models.push_back(
        full.model_for(request.soc, ScenarioRunner::build_soc(request.soc)));
    StepResponseTable& table = models.back()->step_responses();
    // A row under a step no request uses fills the table to its cap.
    constexpr std::size_t kValues = StepResponseTable::kMaxBytes / 8;
    const StepResponseTable::Key key{std::bit_cast<std::uint64_t>(-1.0), 0,
                                     0};
    ASSERT_NE(table.row(key, kValues,
                        [] { return std::vector<double>(kValues, 0.0); }),
              nullptr);
    ASSERT_EQ(table.bytes(), StepResponseTable::kMaxBytes);
  }
  ScenarioRunner fresh;
  const Served under = serve(input, 1, fresh);
  const Served past = serve(input, 1, full);
  EXPECT_EQ(past.records, under.records);
  EXPECT_EQ(past.summary.succeeded, 3u);
  for (const auto& model : models) {
    EXPECT_EQ(model->step_responses().bytes(), StepResponseTable::kMaxBytes);
  }
  std::istringstream again(input);
  for (std::string line; std::getline(again, line);) {
    const ScenarioRequest request = parse_request_line(line);
    const auto model =
        fresh.model_for(request.soc, ScenarioRunner::build_soc(request.soc));
    EXPECT_GT(model->step_responses().bytes(), 0u);
  }
}

}  // namespace
}  // namespace thermo::scenario
