// Request-kind coverage: the two non-sweep kinds (power-trace replay,
// chained-session validation) pinned end to end — canonical request
// strings, exact validation-error messages, and exact serve records —
// plus the .flp block-count cost regression. Golden strings follow the
// same rule as scenario_request_test.cpp: any diff here is a schema
// change and must show up in docs/SERVE.md too.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>

#include "scenario/cost.hpp"
#include "scenario/request.hpp"
#include "scenario/runner.hpp"
#include "util/error.hpp"

namespace thermo::scenario {
namespace {

std::string normalize(const std::string& line) {
  return to_json_line(parse_request_line(line));
}

std::string validation_error_of(const std::string& line) {
  try {
    parse_request_line(line);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "<no throw>";
}

// A 2-step replay on the fig1 SoC; spaces in the inline trace, canonical
// form preserves the text verbatim.
constexpr const char* kPtraceInput =
    R"({"id":"pt","kind":"ptrace","soc":{"kind":"fig1"},)"
    R"("ptrace":{"text":"C1 C2 C3 C4 C5 C6 C7\n12 0 0 0 15 15 15\n)"
    R"(0 15 15 15 0 0 0\n","step_duration":0.05},"solver":{"dt":0.01}})";

constexpr const char* kPtraceGolden =
    R"({"id":"pt","kind":"ptrace","soc":{"kind":"fig1","power_scale":1},)"
    R"("ptrace":{"text":"C1 C2 C3 C4 C5 C6 C7\n12 0 0 0 15 15 15\n)"
    R"(0 15 15 15 0 0 0\n","step_duration":0.05},)"
    R"("solver":{"dt":0.01,"transient":true}})";

constexpr const char* kChainedInput =
    R"({"id":"ch","kind":"chained","soc":{"kind":"fig1"},"stcl":60,)"
    R"("chained":{"cooling_gap":0.25},"solver":{"dt":0.01,"transient":false}})";

constexpr const char* kChainedGolden =
    R"({"id":"ch","kind":"chained","soc":{"kind":"fig1","power_scale":1},)"
    R"("tl":155,"stcl":60,"stc_scale":0,"weight_factor":1.1,)"
    R"("solo_policy":"raise-limit","core_order":"desc-solo-tc",)"
    R"("chained":{"cooling_gap":0.25},)"
    R"("solver":{"dt":0.01,"transient":false}})";

TEST(KindGolden, PtraceCanonicalForm) {
  EXPECT_EQ(normalize(kPtraceInput), kPtraceGolden);
  EXPECT_EQ(normalize(kPtraceGolden), kPtraceGolden);  // fixpoint
}

TEST(KindGolden, ChainedCanonicalForm) {
  EXPECT_EQ(normalize(kChainedInput), kChainedGolden);
  EXPECT_EQ(normalize(kChainedGolden), kChainedGolden);  // fixpoint
}

TEST(KindParse, PtraceFieldsAreApplied) {
  const ScenarioRequest r = parse_request_line(kPtraceInput);
  EXPECT_EQ(r.kind, RequestKind::kPtrace);
  EXPECT_TRUE(r.ptrace.path.empty());
  EXPECT_NE(r.ptrace.text.find("C1 C2"), std::string::npos);
  EXPECT_DOUBLE_EQ(r.ptrace.step_duration, 0.05);
  EXPECT_TRUE(r.solver.transient);
}

TEST(KindParse, PtracePathForm) {
  const ScenarioRequest r = parse_request_line(
      R"({"kind":"ptrace","ptrace":{"path":"trace.ptrace"}})");
  EXPECT_EQ(r.ptrace.path, "trace.ptrace");
  EXPECT_DOUBLE_EQ(r.ptrace.step_duration, 0.001);  // default
}

TEST(KindParse, ChainedDefaultsApply) {
  // The chained object itself is optional; cooling_gap defaults to 0.
  const ScenarioRequest r = parse_request_line(R"({"kind":"chained"})");
  EXPECT_EQ(r.kind, RequestKind::kChained);
  EXPECT_DOUBLE_EQ(r.chained.cooling_gap, 0.0);
  EXPECT_TRUE(r.stcl.single());
}

TEST(KindParse, DefaultKindIsStclSweep) {
  EXPECT_EQ(parse_request_line("{}").kind, RequestKind::kStclSweep);
  EXPECT_STREQ(request_kind_name(RequestKind::kStclSweep), "stcl_sweep");
  EXPECT_STREQ(request_kind_name(RequestKind::kPtrace), "ptrace");
  EXPECT_STREQ(request_kind_name(RequestKind::kChained), "chained");
}

// --- exact validation-error messages ---------------------------------

TEST(KindValidation, UnknownKind) {
  EXPECT_EQ(validation_error_of(R"({"kind":"bogus"})"),
            "scenario request: kind: unknown kind 'bogus' (expected "
            "'stcl_sweep', 'ptrace', 'chained', or 'grid_steady')");
}

TEST(KindValidation, PtraceObjectRequired) {
  EXPECT_EQ(validation_error_of(R"({"kind":"ptrace"})"),
            "scenario request: ptrace: required for kind 'ptrace'");
}

TEST(KindValidation, PtraceOnlyValidForPtraceKind) {
  EXPECT_EQ(validation_error_of(R"({"ptrace":{"text":"x"}})"),
            "scenario request: ptrace: only valid for kind 'ptrace'");
}

TEST(KindValidation, PtraceNeedsExactlyOneSource) {
  EXPECT_EQ(validation_error_of(
                R"({"kind":"ptrace","ptrace":{"path":"a","text":"b"}})"),
            "scenario request: ptrace: exactly one of path or text is "
            "required");
  EXPECT_EQ(validation_error_of(R"({"kind":"ptrace","ptrace":{}})"),
            "scenario request: ptrace: exactly one of path or text is "
            "required");
}

TEST(KindValidation, PtraceStepDurationPositive) {
  EXPECT_EQ(validation_error_of(R"({"kind":"ptrace",)"
                                R"("ptrace":{"text":"x","step_duration":0}})"),
            "scenario request: ptrace.step_duration: must be finite and > 0");
}

TEST(KindValidation, PtraceUnknownField) {
  EXPECT_EQ(validation_error_of(
                R"({"kind":"ptrace","ptrace":{"text":"x","bogus":1}})"),
            "scenario request: ptrace: unknown field 'bogus'");
}

TEST(KindValidation, PtraceRequiresTransientSolver) {
  EXPECT_EQ(validation_error_of(R"({"kind":"ptrace","ptrace":{"text":"x"},)"
                                R"("solver":{"transient":false}})"),
            "scenario request: solver.transient: must be true for kind "
            "'ptrace'");
}

TEST(KindValidation, SchedulingKnobsRejectedForPtrace) {
  EXPECT_EQ(validation_error_of(
                R"({"kind":"ptrace","ptrace":{"text":"x"},"tl":100})"),
            "scenario request: tl: not valid for kind 'ptrace'");
  EXPECT_EQ(validation_error_of(
                R"({"kind":"ptrace","ptrace":{"text":"x"},"stcl":50})"),
            "scenario request: stcl: not valid for kind 'ptrace'");
  EXPECT_EQ(validation_error_of(R"({"kind":"ptrace","ptrace":{"text":"x"},)"
                                R"("weight_factor":1.2})"),
            "scenario request: weight_factor: not valid for kind 'ptrace'");
}

TEST(KindValidation, ChainedOnlyValidForChainedKind) {
  EXPECT_EQ(validation_error_of(R"({"chained":{}})"),
            "scenario request: chained: only valid for kind 'chained'");
}

TEST(KindValidation, ChainedCoolingGapNonNegative) {
  EXPECT_EQ(validation_error_of(
                R"({"kind":"chained","chained":{"cooling_gap":-1}})"),
            "scenario request: chained.cooling_gap: must be finite and >= 0");
}

TEST(KindValidation, ChainedUnknownField) {
  EXPECT_EQ(
      validation_error_of(R"({"kind":"chained","chained":{"bogus":1}})"),
      "scenario request: chained: unknown field 'bogus'");
}

TEST(KindValidation, ChainedRequiresSingleStcl) {
  EXPECT_EQ(validation_error_of(
                R"({"kind":"chained","stcl":{"min":20,"max":40,"step":10}})"),
            "scenario request: stcl: kind 'chained' requires a single stcl "
            "value");
}

// --- golden serve records --------------------------------------------
//
// Exact record bytes for the two golden requests. Like the serve smoke
// tests, these assume one platform/compiler produces stable floating
// point (x86-64 GCC, no FMA contraction at the baseline flags) — the
// same assumption every byte-determinism gate in this repo makes.

TEST(KindServe, PtraceGoldenRecord) {
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(parse_request_line(kPtraceInput));
  EXPECT_EQ(
      to_json(result).dump(),
      R"({"id":"pt","ok":true,"kind":"ptrace","soc":"fig1-hypothetical",)"
      R"("cores":7,"trace":{"steps":2,"duration":0.1,)"
      R"("max_temperature":98.53929376077154,"hottest":"C4"},)"
      R"("simulation_effort":0.1})");
}

TEST(KindServe, ChainedGoldenRecord) {
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(parse_request_line(kChainedInput));
  EXPECT_EQ(
      to_json(result).dump(),
      R"({"id":"ch","ok":true,"kind":"chained","soc":"fig1-hypothetical",)"
      R"("cores":7,"schedule":{"stcl":60,"length":1,"sessions":1,)"
      R"("effective_tl":155},"chained":{"cooling_gap":0.25,)"
      R"("independent_max_temperature":135.66064041622133,)"
      R"("chained_max_temperature":103.60444397187887,"violations":0,)"
      R"("safe":true},"simulation_effort":2})");
}

// The RC network is linear with the ambient as its offset, so at an
// ambient of -200 °C instead of 45 °C the golden replay peaks 245 K
// lower, in the same block: below 0 °C, where a maximum seeded at 0 °C
// would report 0 and name block 0 (C1).
TEST(SubZeroAmbient, PtraceReportsItsHottestStep) {
  const ScenarioRequest request = parse_request_line(kPtraceInput);
  core::SocSpec soc = ScenarioRunner::build_soc(request.soc);
  soc.package.ambient = -200.0;
  const core::PreparedModel model(soc);
  ScenarioResult result;
  run_ptrace(request, core::PreparedSoc{soc, model}, result);
  EXPECT_EQ(result.ptrace.steps, 2u);
  EXPECT_NEAR(result.ptrace.max_temperature, 98.53929376077154 - 245.0, 1e-9);
  EXPECT_EQ(result.ptrace.hottest, "C4");
}

TEST(KindServe, EmptyTraceIsARuntimeError) {
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(parse_request_line(
      R"({"kind":"ptrace","soc":{"kind":"fig1"},)"
      R"("ptrace":{"text":"C1 C2 C3 C4 C5 C6 C7\n"}})"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "ptrace contains no time steps");
  // Error records keep the kind-less {id, ok, error} shape.
  const std::string record = to_json(result).dump();
  EXPECT_EQ(record.find(R"("kind")"), std::string::npos) << record;
}

TEST(KindServe, MissingTraceFileIsARuntimeError) {
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(parse_request_line(
      R"({"kind":"ptrace","ptrace":{"path":"/nonexistent/t.ptrace"}})"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot open ptrace file"), std::string::npos);
}

TEST(KindServe, CoolingGapReducesChainedPeak) {
  // Physics sanity on top of the goldens: a longer cooling gap can only
  // lower (or keep) the chained peak temperature.
  ScenarioRunner runner;
  auto chained_max = [&](double gap) {
    ScenarioRequest r = parse_request_line(kChainedInput);
    r.chained.cooling_gap = gap;
    return runner.run(r).chained.chained_max;
  };
  EXPECT_GE(chained_max(0.0), chained_max(2.0));
}

// --- .flp costs read the real block count ----------------------------

std::string make_flp_file(const std::string& name, int blocks) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << "# comment line\n\n";
  for (int i = 0; i < blocks; ++i) {
    out << "b" << i << "\t0.001\t0.001\t" << 0.001 * i << "\t0\t# trailing\n";
  }
  return path;
}

ScenarioRequest flp_request(const std::string& path) {
  ScenarioRequest r;
  r.soc.kind = SocKind::kFlp;
  r.soc.flp_path = path;
  return r;
}

/// A synthetic request with `cores` cores and the named SoCs' 1 s tests,
/// so it costs exactly what a `.flp` of that many blocks costs.
ScenarioRequest synthetic_request(std::size_t cores) {
  ScenarioRequest r;
  r.soc.kind = SocKind::kSynthetic;
  r.soc.synthetic.cores = cores;
  r.soc.synthetic.test_length_min = 1.0;
  r.soc.synthetic.test_length_max = 1.0;
  return r;
}

TEST(FlpCost, BlockCountIsReadFromTheFile) {
  const std::string path = make_flp_file("cost3.flp", 3);
  // Comments and blank lines don't count: 3 blocks cost as 3 cores.
  EXPECT_EQ(estimate_request_cost(flp_request(path)),
            estimate_request_cost(synthetic_request(3)));
}

TEST(FlpCost, UnreadableFileFallsBackToTheGuess) {
  EXPECT_EQ(estimate_request_cost(flp_request("/nonexistent/chip.flp")),
            estimate_request_cost(synthetic_request(40)));
}

TEST(FlpCost, RankingFollowsBlockCount) {
  // Regression for the old fixed guess: a 60-block floorplan must now
  // rank above a 3-block one (both previously scored as "40 cores").
  const std::string small = make_flp_file("rank3.flp", 3);
  const std::string large = make_flp_file("rank60.flp", 60);
  EXPECT_GT(estimate_request_cost(flp_request(large)),
            estimate_request_cost(flp_request(small)));
  // And the real count slots .flp requests correctly among synthetics.
  ScenarioRequest synthetic_mid;
  synthetic_mid.soc.kind = SocKind::kSynthetic;
  synthetic_mid.soc.synthetic.cores = 30;
  EXPECT_GT(estimate_request_cost(flp_request(large)),
            estimate_request_cost(synthetic_mid));
  EXPECT_LT(estimate_request_cost(flp_request(small)),
            estimate_request_cost(synthetic_mid));
}

// --- ptrace costs ----------------------------------------------------

TEST(PtraceCost, OracleCallsEqualTraceSteps) {
  const ScenarioRequest r = parse_request_line(kPtraceInput);
  // fig1's 7 cores + 10 package nodes = 17 nodes; one transient call per
  // trace line (2), each 0.05 / 0.01 = 5 steps, one point:
  //   1000 + 2 calls * (5 steps * 17·(4 + log2 17) + 50).
  const double nnz = 17.0 * (4.0 + std::log2(17.0));
  EXPECT_EQ(estimate_request_cost(r), 1000.0 + 2.0 * (5.0 * nnz + 50.0));
}

TEST(PtraceCost, LongerTraceCostsMore) {
  ScenarioRequest short_trace = parse_request_line(kPtraceInput);
  ScenarioRequest long_trace = short_trace;
  for (int i = 0; i < 50; ++i) {
    long_trace.ptrace.text += "1 1 1 1 1 1 1\n";
  }
  EXPECT_GT(estimate_request_cost(long_trace),
            estimate_request_cost(short_trace));
}

}  // namespace
}  // namespace thermo::scenario
