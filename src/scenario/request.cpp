#include "scenario/request.hpp"

#include <cmath>

#include "core/stcl_sweep.hpp"
#include "util/error.hpp"

namespace thermo::scenario {

namespace {

/// Largest STCL range a single request may expand to. A serve batch
/// should stay a batch of bounded work items; bigger scans belong in
/// multiple requests.
constexpr std::size_t kMaxStclPoints = 10000;

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  const std::string where = path.empty() ? "" : path + ": ";
  throw InvalidArgument("scenario request: " + where + message);
}

double require_number(const JsonValue& v, const std::string& path) {
  if (!v.is_number()) {
    fail(path, std::string("expected a number, got ") + v.type_name());
  }
  return v.as_number();
}

std::string require_string(const JsonValue& v, const std::string& path) {
  if (!v.is_string()) {
    fail(path, std::string("expected a string, got ") + v.type_name());
  }
  return v.as_string();
}

bool require_bool(const JsonValue& v, const std::string& path) {
  if (!v.is_bool()) {
    fail(path, std::string("expected a bool, got ") + v.type_name());
  }
  return v.as_bool();
}

double positive_number(const JsonValue& v, const std::string& path) {
  const double value = require_number(v, path);
  if (!std::isfinite(value) || value <= 0.0) {
    fail(path, "must be finite and > 0");
  }
  return value;
}

std::uint64_t require_integer(const JsonValue& v, const std::string& path,
                              std::uint64_t min_value) {
  const double value = require_number(v, path);
  if (!std::isfinite(value) || value != std::floor(value) || value < 0.0 ||
      value > 9.007199254740992e15) {  // 2^53: exactly representable range
    fail(path, "must be a non-negative integer");
  }
  const auto integer = static_cast<std::uint64_t>(value);
  if (integer < min_value) {
    fail(path, "must be an integer >= " + std::to_string(min_value));
  }
  return integer;
}

RequestKind parse_request_kind(const JsonValue& v) {
  const std::string name = require_string(v, "kind");
  if (name == "stcl_sweep") return RequestKind::kStclSweep;
  if (name == "ptrace") return RequestKind::kPtrace;
  if (name == "chained") return RequestKind::kChained;
  if (name == "grid_steady") return RequestKind::kGridSteady;
  fail("kind",
       "unknown kind '" + name +
           "' (expected 'stcl_sweep', 'ptrace', 'chained', or 'grid_steady')");
}

/// The Algorithm 1 knobs (tl, stcl, weighting, ordering) only make sense
/// when a schedule is being generated — every kind except ptrace replay
/// and the grid oracle.
void require_scheduling_kind(RequestKind kind, const std::string& path) {
  if (kind == RequestKind::kPtrace || kind == RequestKind::kGridSteady) {
    fail(path, std::string("not valid for kind '") + request_kind_name(kind) +
                   "'");
  }
}

GridSpec parse_grid(const JsonValue& v) {
  if (!v.is_object()) {
    fail("grid", std::string("expected an object, got ") + v.type_name());
  }
  GridSpec spec;
  for (const auto& [key, value] : v.members()) {
    const std::string path = "grid." + key;
    if (key == "rows") {
      spec.rows = static_cast<std::size_t>(require_integer(value, path, 2));
    } else if (key == "cols") {
      spec.cols = static_cast<std::size_t>(require_integer(value, path, 2));
    } else {
      fail("grid", "unknown field '" + key + "'");
    }
  }
  if (spec.rows > kMaxGridSide || spec.cols > kMaxGridSide) {
    fail("grid", "rows and cols must be <= " + std::to_string(kMaxGridSide));
  }
  return spec;
}

PtraceSpec parse_ptrace(const JsonValue& v) {
  if (!v.is_object()) {
    fail("ptrace", std::string("expected an object, got ") + v.type_name());
  }
  PtraceSpec spec;
  for (const auto& [key, value] : v.members()) {
    const std::string path = "ptrace." + key;
    if (key == "path") {
      spec.path = require_string(value, path);
      if (spec.path.empty()) fail(path, "must be a non-empty path");
    } else if (key == "text") {
      spec.text = require_string(value, path);
      if (spec.text.empty()) fail(path, "must be non-empty ptrace content");
    } else if (key == "step_duration") {
      spec.step_duration = positive_number(value, path);
    } else {
      fail("ptrace", "unknown field '" + key + "'");
    }
  }
  if (spec.path.empty() == spec.text.empty()) {
    fail("ptrace", "exactly one of path or text is required");
  }
  return spec;
}

ChainedSpec parse_chained(const JsonValue& v) {
  if (!v.is_object()) {
    fail("chained", std::string("expected an object, got ") + v.type_name());
  }
  ChainedSpec spec;
  for (const auto& [key, value] : v.members()) {
    const std::string path = "chained." + key;
    if (key == "cooling_gap") {
      const double gap = require_number(value, path);
      if (!std::isfinite(gap) || gap < 0.0) {
        fail(path, "must be finite and >= 0");
      }
      spec.cooling_gap = gap;
    } else {
      fail("chained", "unknown field '" + key + "'");
    }
  }
  return spec;
}

SocKind parse_soc_kind(const JsonValue& v) {
  const std::string name = require_string(v, "soc.kind");
  if (name == "alpha") return SocKind::kAlpha;
  if (name == "fig1") return SocKind::kFig1;
  if (name == "synthetic") return SocKind::kSynthetic;
  if (name == "flp") return SocKind::kFlp;
  fail("soc.kind", "unknown SoC kind '" + name +
                       "' (expected 'alpha', 'fig1', 'synthetic', or 'flp')");
}

void parse_synthetic_field(SyntheticSpec& syn, const std::string& key,
                           const JsonValue& value, const std::string& path) {
  if (key == "seed") {
    syn.seed = require_integer(value, path, 0);
  } else if (key == "cores") {
    syn.cores = static_cast<std::size_t>(require_integer(value, path, 1));
  } else if (key == "chip_width") {
    syn.chip_width = positive_number(value, path);
  } else if (key == "chip_height") {
    syn.chip_height = positive_number(value, path);
  } else if (key == "power_density_min") {
    syn.power_density_min = positive_number(value, path);
  } else if (key == "power_density_max") {
    syn.power_density_max = positive_number(value, path);
  } else if (key == "test_length_min") {
    syn.test_length_min = positive_number(value, path);
  } else {
    syn.test_length_max = positive_number(value, path);
  }
}

SocSelector parse_soc(const JsonValue& v) {
  if (!v.is_object()) {
    fail("soc", std::string("expected an object, got ") + v.type_name());
  }
  SocSelector soc;
  if (const JsonValue* kind = v.find("kind")) {
    soc.kind = parse_soc_kind(*kind);
  }
  for (const auto& [key, value] : v.members()) {
    const std::string path = "soc." + key;
    if (key == "kind") {
      continue;  // handled above, before kind-specific fields
    } else if (key == "power_scale") {
      soc.power_scale = positive_number(value, path);
    } else if (key == "path") {
      if (soc.kind != SocKind::kFlp) {
        fail(path, "only valid for kind 'flp'");
      }
      soc.flp_path = require_string(value, path);
      if (soc.flp_path.empty()) fail(path, "must be a non-empty path");
    } else if (key == "density") {
      if (soc.kind != SocKind::kFlp) {
        fail(path, "only valid for kind 'flp'");
      }
      soc.flp_density = positive_number(value, path);
    } else if (key == "seed" || key == "cores" || key == "chip_width" ||
               key == "chip_height" || key == "power_density_min" ||
               key == "power_density_max" || key == "test_length_min" ||
               key == "test_length_max") {
      if (soc.kind != SocKind::kSynthetic) {
        fail(path, "only valid for kind 'synthetic'");
      }
      parse_synthetic_field(soc.synthetic, key, value, path);
    } else {
      fail(path, "unknown field '" + key + "'");
    }
  }
  if (soc.kind == SocKind::kFlp && soc.flp_path.empty()) {
    fail("soc.path", "required for kind 'flp'");
  }
  if (soc.kind == SocKind::kSynthetic) {
    if (soc.synthetic.power_density_max < soc.synthetic.power_density_min) {
      fail("soc.power_density_max", "must be >= power_density_min");
    }
    if (soc.synthetic.test_length_max < soc.synthetic.test_length_min) {
      fail("soc.test_length_max", "must be >= test_length_min");
    }
  }
  return soc;
}

StclSpan parse_stcl(const JsonValue& v) {
  StclSpan span;
  if (v.is_number()) {
    const double value = v.as_number();
    if (!std::isfinite(value) || value <= 0.0) {
      fail("stcl", "must be finite and > 0");
    }
    span.min = span.max = value;
    return span;
  }
  if (!v.is_object()) {
    fail("stcl", std::string("expected a number or an object with "
                             "min/max/step, got ") +
                     v.type_name());
  }
  for (const auto& [key, value] : v.members()) {
    const std::string path = "stcl." + key;
    if (key == "min") {
      span.min = require_number(value, path);
      if (!std::isfinite(span.min) || span.min <= 0.0) {
        fail(path, "must be finite and > 0");
      }
    } else if (key == "max") {
      span.max = require_number(value, path);
      if (!std::isfinite(span.max) || span.max <= 0.0) {
        fail(path, "must be finite and > 0");
      }
    } else if (key == "step") {
      span.step = require_number(value, path);
      if (!std::isfinite(span.step) || span.step <= 0.0) {
        fail(path, "must be finite and > 0");
      }
    } else {
      fail("stcl", "unknown field '" + key + "'");
    }
  }
  if (v.find("min") == nullptr || v.find("max") == nullptr) {
    fail("stcl", "an stcl object requires both min and max");
  }
  if (span.max < span.min) {
    fail("stcl", "max must be >= min");
  }
  if ((span.max - span.min) / span.step + 1.0 >
      static_cast<double>(kMaxStclPoints)) {
    fail("stcl", "range would expand to more than " +
                     std::to_string(kMaxStclPoints) + " points");
  }
  return span;
}

core::SoloViolationPolicy parse_solo_policy(const JsonValue& v) {
  const std::string name = require_string(v, "solo_policy");
  if (name == "throw") return core::SoloViolationPolicy::kThrow;
  if (name == "raise-limit") return core::SoloViolationPolicy::kRaiseLimit;
  if (name == "exclude") return core::SoloViolationPolicy::kExclude;
  fail("solo_policy", "unknown policy '" + name +
                          "' (expected 'throw', 'raise-limit', or 'exclude')");
}

const char* solo_policy_name(core::SoloViolationPolicy policy) {
  switch (policy) {
    case core::SoloViolationPolicy::kThrow: return "throw";
    case core::SoloViolationPolicy::kRaiseLimit: return "raise-limit";
    case core::SoloViolationPolicy::kExclude: return "exclude";
  }
  return "?";
}

core::CoreOrder parse_core_order(const JsonValue& v) {
  const std::string name = require_string(v, "core_order");
  if (name == "input") return core::CoreOrder::kInputOrder;
  if (name == "desc-power") return core::CoreOrder::kDescendingPower;
  if (name == "desc-solo-tc") return core::CoreOrder::kDescendingSoloTc;
  if (name == "asc-solo-tc") return core::CoreOrder::kAscendingSoloTc;
  fail("core_order",
       "unknown order '" + name +
           "' (expected 'input', 'desc-power', 'desc-solo-tc', or "
           "'asc-solo-tc')");
}

const char* core_order_name(core::CoreOrder order) {
  switch (order) {
    case core::CoreOrder::kInputOrder: return "input";
    case core::CoreOrder::kDescendingPower: return "desc-power";
    case core::CoreOrder::kDescendingSoloTc: return "desc-solo-tc";
    case core::CoreOrder::kAscendingSoloTc: return "asc-solo-tc";
  }
  return "?";
}

/// `solver.backend` is legacy: every solve uses the sparse
/// factorization. Streams written before it was retired name "auto" or
/// "sparse", which are accepted and dropped; anything else is rejected.
void check_legacy_backend(const JsonValue& v, const std::string& path) {
  const std::string name = require_string(v, path);
  if (name != "auto" && name != "sparse") {
    fail(path, "unsupported backend '" + name +
                   "' (every solve uses the sparse factorization; omit the "
                   "field)");
  }
}

SolverSpec parse_solver(const JsonValue& v) {
  if (!v.is_object()) {
    fail("solver", std::string("expected an object, got ") + v.type_name());
  }
  SolverSpec solver;
  for (const auto& [key, value] : v.members()) {
    const std::string path = "solver." + key;
    if (key == "dt") {
      solver.dt = positive_number(value, path);
    } else if (key == "transient") {
      solver.transient = require_bool(value, path);
    } else if (key == "backend") {
      check_legacy_backend(value, path);
    } else {
      fail("solver", "unknown field '" + key + "'");
    }
  }
  return solver;
}

}  // namespace

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kStclSweep: return "stcl_sweep";
    case RequestKind::kPtrace: return "ptrace";
    case RequestKind::kChained: return "chained";
    case RequestKind::kGridSteady: return "grid_steady";
  }
  return "?";
}

const char* soc_kind_name(SocKind kind) {
  switch (kind) {
    case SocKind::kAlpha: return "alpha";
    case SocKind::kFig1: return "fig1";
    case SocKind::kSynthetic: return "synthetic";
    case SocKind::kFlp: return "flp";
  }
  return "?";
}

std::string SocSelector::geometry_key() const {
  switch (kind) {
    case SocKind::kAlpha: return "alpha";
    case SocKind::kFig1: return "fig1";
    case SocKind::kFlp: return "flp:" + flp_path;
    case SocKind::kSynthetic:
      // Geometry is fully determined by the slicing inputs + seed; the
      // power/length ranges are drawn *after* the floorplan from the
      // same stream and so cannot change it.
      return "synthetic:" + std::to_string(synthetic.seed) + ":" +
             std::to_string(synthetic.cores) + ":" +
             format_json_number(synthetic.chip_width) + ":" +
             format_json_number(synthetic.chip_height);
  }
  return "?";
}

std::vector<double> StclSpan::values() const {
  return core::stcl_range(min, max, step);
}

ScenarioRequest parse_request(const JsonValue& json) {
  if (!json.is_object()) {
    fail("", std::string("expected a JSON object, got ") + json.type_name());
  }
  ScenarioRequest request;
  if (const JsonValue* kind = json.find("kind")) {
    request.kind = parse_request_kind(*kind);
  }
  bool saw_ptrace = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "kind") {
      continue;  // handled above, before kind-gated fields
    } else if (key == "id") {
      request.id = require_string(value, "id");
    } else if (key == "deadline_s") {
      // Serving-contract knob, valid for every kind (unlike the
      // Algorithm 1 fields): a replay request can carry an SLO too.
      request.deadline_s = positive_number(value, "deadline_s");
    } else if (key == "soc") {
      request.soc = parse_soc(value);
    } else if (key == "ptrace") {
      if (request.kind != RequestKind::kPtrace) {
        fail("ptrace", "only valid for kind 'ptrace'");
      }
      request.ptrace = parse_ptrace(value);
      saw_ptrace = true;
    } else if (key == "chained") {
      if (request.kind != RequestKind::kChained) {
        fail("chained", "only valid for kind 'chained'");
      }
      request.chained = parse_chained(value);
    } else if (key == "grid") {
      if (request.kind != RequestKind::kGridSteady) {
        fail("grid", "only valid for kind 'grid_steady'");
      }
      request.grid = parse_grid(value);
    } else if (key == "tl") {
      require_scheduling_kind(request.kind, "tl");
      request.tl = positive_number(value, "tl");
    } else if (key == "stcl") {
      require_scheduling_kind(request.kind, "stcl");
      request.stcl = parse_stcl(value);
    } else if (key == "stc_scale") {
      require_scheduling_kind(request.kind, "stc_scale");
      const double value_d = require_number(value, "stc_scale");
      if (!std::isfinite(value_d) || value_d < 0.0) {
        fail("stc_scale", "must be finite and >= 0 (0 = auto)");
      }
      request.stc_scale = value_d;
    } else if (key == "weight_factor") {
      require_scheduling_kind(request.kind, "weight_factor");
      const double value_d = require_number(value, "weight_factor");
      if (!std::isfinite(value_d) || value_d < 1.0) {
        fail("weight_factor", "must be finite and >= 1");
      }
      request.weight_factor = value_d;
    } else if (key == "solo_policy") {
      require_scheduling_kind(request.kind, "solo_policy");
      request.solo_policy = parse_solo_policy(value);
    } else if (key == "core_order") {
      require_scheduling_kind(request.kind, "core_order");
      request.core_order = parse_core_order(value);
    } else if (key == "solver") {
      request.solver = parse_solver(value);
    } else {
      fail("", "unknown field '" + key + "'");
    }
  }
  if (request.kind == RequestKind::kPtrace) {
    if (!saw_ptrace) {
      fail("ptrace", "required for kind 'ptrace'");
    }
    if (!request.solver.transient) {
      fail("solver.transient", "must be true for kind 'ptrace'");
    }
  }
  if (request.kind == RequestKind::kChained && !request.stcl.single()) {
    fail("stcl", "kind 'chained' requires a single stcl value");
  }
  return request;
}

ScenarioRequest parse_request_line(std::string_view text) {
  return parse_request(parse_json(text));
}

JsonValue to_json(const ScenarioRequest& request) {
  JsonValue out = JsonValue::object();
  out.set("id", JsonValue::string(request.id));
  out.set("kind", JsonValue::string(request_kind_name(request.kind)));
  // The SLO deadline is emitted only when set: requests without one
  // keep byte-identical canonical form across schema versions (the
  // golden round-trip files and gen streams predate the field).
  if (request.deadline_s != 0.0) {
    out.set("deadline_s", JsonValue::number(request.deadline_s));
  }

  JsonValue soc = JsonValue::object();
  soc.set("kind", JsonValue::string(soc_kind_name(request.soc.kind)));
  if (request.soc.kind == SocKind::kFlp) {
    soc.set("path", JsonValue::string(request.soc.flp_path));
    soc.set("density", JsonValue::number(request.soc.flp_density));
  }
  if (request.soc.kind == SocKind::kSynthetic) {
    const SyntheticSpec& syn = request.soc.synthetic;
    soc.set("seed", JsonValue::number(static_cast<double>(syn.seed)));
    soc.set("cores", JsonValue::number(static_cast<double>(syn.cores)));
    soc.set("chip_width", JsonValue::number(syn.chip_width));
    soc.set("chip_height", JsonValue::number(syn.chip_height));
    soc.set("power_density_min", JsonValue::number(syn.power_density_min));
    soc.set("power_density_max", JsonValue::number(syn.power_density_max));
    soc.set("test_length_min", JsonValue::number(syn.test_length_min));
    soc.set("test_length_max", JsonValue::number(syn.test_length_max));
  }
  soc.set("power_scale", JsonValue::number(request.soc.power_scale));
  out.set("soc", std::move(soc));

  if (request.kind == RequestKind::kPtrace) {
    // Replay requests have no scheduling knobs; canonical form is just
    // the trace plus the solver it will be integrated with.
    JsonValue ptrace = JsonValue::object();
    if (!request.ptrace.path.empty()) {
      ptrace.set("path", JsonValue::string(request.ptrace.path));
    } else {
      ptrace.set("text", JsonValue::string(request.ptrace.text));
    }
    ptrace.set("step_duration", JsonValue::number(request.ptrace.step_duration));
    out.set("ptrace", std::move(ptrace));
  } else if (request.kind == RequestKind::kGridSteady) {
    // The grid oracle has no scheduling knobs either; canonical form is
    // the discretisation plus the solver.
    JsonValue grid = JsonValue::object();
    grid.set("rows", JsonValue::number(static_cast<double>(request.grid.rows)));
    grid.set("cols", JsonValue::number(static_cast<double>(request.grid.cols)));
    out.set("grid", std::move(grid));
  } else {
    out.set("tl", JsonValue::number(request.tl));
    if (request.stcl.single()) {
      out.set("stcl", JsonValue::number(request.stcl.min));
    } else {
      JsonValue span = JsonValue::object();
      span.set("min", JsonValue::number(request.stcl.min));
      span.set("max", JsonValue::number(request.stcl.max));
      span.set("step", JsonValue::number(request.stcl.step));
      out.set("stcl", std::move(span));
    }
    out.set("stc_scale", JsonValue::number(request.stc_scale));
    out.set("weight_factor", JsonValue::number(request.weight_factor));
    out.set("solo_policy",
            JsonValue::string(solo_policy_name(request.solo_policy)));
    out.set("core_order",
            JsonValue::string(core_order_name(request.core_order)));
    if (request.kind == RequestKind::kChained) {
      JsonValue chained = JsonValue::object();
      chained.set("cooling_gap", JsonValue::number(request.chained.cooling_gap));
      out.set("chained", std::move(chained));
    }
  }

  JsonValue solver = JsonValue::object();
  solver.set("dt", JsonValue::number(request.solver.dt));
  solver.set("transient", JsonValue::boolean(request.solver.transient));
  out.set("solver", std::move(solver));
  return out;
}

std::string to_json_line(const ScenarioRequest& request) {
  return to_json(request).dump();
}

}  // namespace thermo::scenario
