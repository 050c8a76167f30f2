#include "scenario/request.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace thermo::scenario {
namespace {

std::string validation_error_of(const std::string& line) {
  try {
    parse_request_line(line);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "<no throw>";
}

std::string normalize(const std::string& line) {
  return to_json_line(parse_request_line(line));
}

// --- golden-file round trips: parse -> serialize -> parse ------------

// The canonical full form of the all-defaults request. Every field is
// explicit, member order is fixed, numbers are shortest-round-trip.
// Deliberately a golden string: any change to the canonical form is a
// schema change and must show up in this test and docs/SERVE.md.
constexpr const char* kDefaultGolden =
    R"({"id":"","kind":"stcl_sweep",)"
    R"("soc":{"kind":"alpha","power_scale":1},"tl":155,"stcl":50,)"
    R"("stc_scale":0,"weight_factor":1.1,"solo_policy":"raise-limit",)"
    R"("core_order":"desc-solo-tc",)"
    R"("solver":{"dt":0.001,"transient":true}})";

TEST(ScenarioGolden, EmptyRequestNormalizesToDefaults) {
  EXPECT_EQ(normalize("{}"), kDefaultGolden);
}

TEST(ScenarioGolden, CanonicalFormIsAFixpoint) {
  // serialize(parse(x)) is idempotent for every SoC kind.
  const std::string cases[] = {
      "{}",
      R"({"soc":{"kind":"fig1"},"tl":150})",
      R"({"id":"r1","soc":{"kind":"synthetic","seed":7,"cores":9},)"
      R"("stcl":{"min":20,"max":100,"step":10}})",
      R"({"soc":{"kind":"flp","path":"chip.flp","density":500000},)"
      R"("solver":{"transient":false}})",
      R"({"solver":{"backend":"sparse"}})",
  };
  for (const std::string& input : cases) {
    const std::string canon = normalize(input);
    EXPECT_EQ(normalize(canon), canon) << "input: " << input;
  }
}

TEST(ScenarioGolden, SyntheticFullForm) {
  EXPECT_EQ(
      normalize(R"({"id":"s","soc":{"kind":"synthetic","seed":7,"cores":9}})"),
      R"({"id":"s","kind":"stcl_sweep",)"
      R"("soc":{"kind":"synthetic","seed":7,"cores":9,)"
      R"("chip_width":0.016,"chip_height":0.016,"power_density_min":2e+05,)"
      R"("power_density_max":2e+06,"test_length_min":1,"test_length_max":1,)"
      R"("power_scale":1},"tl":155,"stcl":50,"stc_scale":0,)"
      R"("weight_factor":1.1,"solo_policy":"raise-limit",)"
      R"("core_order":"desc-solo-tc",)"
      R"("solver":{"dt":0.001,"transient":true}})");
}

TEST(ScenarioGolden, StclRangeKeepsObjectForm) {
  const std::string canon =
      normalize(R"({"stcl":{"min":20,"max":40,"step":5}})");
  EXPECT_NE(canon.find(R"("stcl":{"min":20,"max":40,"step":5})"),
            std::string::npos)
      << canon;
}

TEST(ScenarioParse, FieldsAreApplied) {
  const ScenarioRequest r = parse_request_line(
      R"({"id":"x","soc":{"kind":"flp","path":"a.flp","density":2e6,)"
      R"("power_scale":1.5},"tl":140,"stcl":{"min":20,"max":60,"step":20},)"
      R"("stc_scale":0.01,"weight_factor":1.2,"solo_policy":"throw",)"
      R"("core_order":"desc-power",)"
      R"("solver":{"dt":0.01,"transient":false,"backend":"sparse"}})");
  EXPECT_EQ(r.id, "x");
  EXPECT_EQ(r.soc.kind, SocKind::kFlp);
  EXPECT_EQ(r.soc.flp_path, "a.flp");
  EXPECT_DOUBLE_EQ(r.soc.flp_density, 2e6);
  EXPECT_DOUBLE_EQ(r.soc.power_scale, 1.5);
  EXPECT_DOUBLE_EQ(r.tl, 140.0);
  const std::vector<double> values = r.stcl.values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 20.0);
  EXPECT_DOUBLE_EQ(values[2], 60.0);
  EXPECT_DOUBLE_EQ(r.stc_scale, 0.01);
  EXPECT_DOUBLE_EQ(r.weight_factor, 1.2);
  EXPECT_EQ(r.solo_policy, core::SoloViolationPolicy::kThrow);
  EXPECT_EQ(r.core_order, core::CoreOrder::kDescendingPower);
  EXPECT_DOUBLE_EQ(r.solver.dt, 0.01);
  EXPECT_FALSE(r.solver.transient);
}

TEST(ScenarioParse, LegacyBackendIsAcceptedAndDropped) {
  // Streams written before solver.backend was retired name "auto" or
  // "sparse": both parse, and the canonical form no longer carries the
  // field, so they normalize (and memoize) exactly like omitting it.
  const std::string omitted = normalize("{}");
  EXPECT_EQ(normalize(R"({"solver":{"backend":"auto"}})"), omitted);
  EXPECT_EQ(normalize(R"({"solver":{"backend":"sparse"}})"), omitted);
  EXPECT_EQ(omitted.find("backend"), std::string::npos);
}

// --- malformed input: the messages are part of the interface ---------

TEST(ScenarioValidation, TopLevelShape) {
  EXPECT_EQ(validation_error_of("[]"),
            "scenario request: expected a JSON object, got array");
  EXPECT_EQ(validation_error_of(R"({"tll":155})"),
            "scenario request: unknown field 'tll'");
}

TEST(ScenarioValidation, PriorityIsAnUnknownField) {
  // The serve placement that read it is gone, and gen never emitted it:
  // a line carrying it gets the parser's plain unknown-field record.
  EXPECT_EQ(validation_error_of(R"({"priority":2})"),
            "scenario request: unknown field 'priority'");
  EXPECT_EQ(validation_error_of(R"({"tl":150,"priority":1})"),
            "scenario request: unknown field 'priority'");
}

TEST(ScenarioValidation, ScalarFields) {
  EXPECT_EQ(validation_error_of(R"({"tl":"hot"})"),
            "scenario request: tl: expected a number, got string");
  EXPECT_EQ(validation_error_of(R"({"tl":-3})"),
            "scenario request: tl: must be finite and > 0");
  EXPECT_EQ(validation_error_of(R"({"stc_scale":-1})"),
            "scenario request: stc_scale: must be finite and >= 0 (0 = auto)");
  EXPECT_EQ(validation_error_of(R"({"weight_factor":0.5})"),
            "scenario request: weight_factor: must be finite and >= 1");
  EXPECT_EQ(validation_error_of(R"({"id":7})"),
            "scenario request: id: expected a string, got number");
}

TEST(ScenarioValidation, SocSelector) {
  EXPECT_EQ(validation_error_of(R"({"soc":{"kind":"alhpa"}})"),
            "scenario request: soc.kind: unknown SoC kind 'alhpa' "
            "(expected 'alpha', 'fig1', 'synthetic', or 'flp')");
  EXPECT_EQ(validation_error_of(R"({"soc":{"kind":"flp"}})"),
            "scenario request: soc.path: required for kind 'flp'");
  EXPECT_EQ(validation_error_of(R"({"soc":{"kind":"alpha","seed":3}})"),
            "scenario request: soc.seed: only valid for kind 'synthetic'");
  EXPECT_EQ(validation_error_of(R"({"soc":{"kind":"alpha","path":"x"}})"),
            "scenario request: soc.path: only valid for kind 'flp'");
  EXPECT_EQ(validation_error_of(R"({"soc":{"kind":"synthetic","cores":0}})"),
            "scenario request: soc.cores: must be an integer >= 1");
  EXPECT_EQ(validation_error_of(R"({"soc":{"kind":"synthetic","seed":2.5}})"),
            "scenario request: soc.seed: must be a non-negative integer");
  EXPECT_EQ(validation_error_of(
                R"({"soc":{"kind":"synthetic","power_density_min":2e6,)"
                R"("power_density_max":2e5}})"),
            "scenario request: soc.power_density_max: "
            "must be >= power_density_min");
  EXPECT_EQ(validation_error_of(R"({"soc":{"kind":"alpha","frob":1}})"),
            "scenario request: soc.frob: unknown field 'frob'");
}

TEST(ScenarioValidation, StclSpan) {
  EXPECT_EQ(validation_error_of(R"({"stcl":"wide"})"),
            "scenario request: stcl: expected a number or an object with "
            "min/max/step, got string");
  EXPECT_EQ(validation_error_of(R"({"stcl":0})"),
            "scenario request: stcl: must be finite and > 0");
  EXPECT_EQ(validation_error_of(R"({"stcl":{"min":50}})"),
            "scenario request: stcl: an stcl object requires both min and max");
  EXPECT_EQ(validation_error_of(R"({"stcl":{"min":60,"max":50}})"),
            "scenario request: stcl: max must be >= min");
  EXPECT_EQ(validation_error_of(R"({"stcl":{"min":1,"max":100000,"step":1}})"),
            "scenario request: stcl: range would expand to more than "
            "10000 points");
  EXPECT_EQ(validation_error_of(R"({"stcl":{"min":1,"max":2,"step":0}})"),
            "scenario request: stcl.step: must be finite and > 0");
}

TEST(ScenarioValidation, EnumsAndSolver) {
  // The paper's two remedies for a core that breaks TL alone are the only
  // solo policies; "exclude" is not one.
  for (const std::string policy : {"explode", "exclude"}) {
    EXPECT_EQ(validation_error_of(R"({"solo_policy":")" + policy + "\"}"),
              "scenario request: solo_policy: unknown policy '" + policy +
                  "' (expected 'throw' or 'raise-limit')");
  }
  EXPECT_EQ(validation_error_of(R"({"core_order":"random"})"),
            "scenario request: core_order: unknown order 'random' (expected "
            "'input', 'desc-power', 'desc-solo-tc', or 'asc-solo-tc')");
  EXPECT_EQ(validation_error_of(R"({"solver":{"dt":0}})"),
            "scenario request: solver.dt: must be finite and > 0");
  EXPECT_EQ(validation_error_of(R"({"solver":{"fast":true}})"),
            "scenario request: solver: unknown field 'fast'");
  EXPECT_EQ(validation_error_of(R"({"solver":{"transient":1}})"),
            "scenario request: solver.transient: expected a bool, got number");
  // Every other backend — including the deleted "dense" — gets one
  // exact message.
  for (const std::string name : {"dense", "cuda", ""}) {
    EXPECT_EQ(validation_error_of(R"({"solver":{"backend":")" + name + "\"}}"),
              "scenario request: solver.backend: unsupported backend '" +
                  name +
                  "' (every solve uses the sparse factorization; omit the "
                  "field)");
  }
  EXPECT_EQ(validation_error_of(R"({"solver":{"backend":true}})"),
            "scenario request: solver.backend: expected a string, got bool");
}

TEST(ScenarioValidation, MalformedJsonIsAParseError) {
  EXPECT_THROW(parse_request_line("{not json"), ParseError);
}

// --- geometry keys: the unit of model sharing ------------------------

TEST(ScenarioGeometryKey, PowerFieldsDoNotChangeTheKey) {
  SocSelector a;  // alpha
  SocSelector b;
  b.power_scale = 2.0;
  EXPECT_EQ(a.geometry_key(), b.geometry_key());

  SocSelector syn1;
  syn1.kind = SocKind::kSynthetic;
  syn1.synthetic.seed = 9;
  SocSelector syn2 = syn1;
  syn2.synthetic.power_density_max = 5e6;  // powers drawn after geometry
  syn2.power_scale = 0.5;
  EXPECT_EQ(syn1.geometry_key(), syn2.geometry_key());

  SocSelector syn3 = syn1;
  syn3.synthetic.seed = 10;
  EXPECT_NE(syn1.geometry_key(), syn3.geometry_key());
  SocSelector syn4 = syn1;
  syn4.synthetic.cores = 13;
  EXPECT_NE(syn1.geometry_key(), syn4.geometry_key());
}

TEST(ScenarioGeometryKey, KindsAreDistinct) {
  SocSelector alpha;
  SocSelector fig1;
  fig1.kind = SocKind::kFig1;
  SocSelector flp;
  flp.kind = SocKind::kFlp;
  flp.flp_path = "chip.flp";
  EXPECT_NE(alpha.geometry_key(), fig1.geometry_key());
  EXPECT_NE(alpha.geometry_key(), flp.geometry_key());
  EXPECT_NE(fig1.geometry_key(), flp.geometry_key());
}

}  // namespace
}  // namespace thermo::scenario
