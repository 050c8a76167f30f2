// Scenario request format: a durable JSON description of one scheduling
// scenario — which SoC, at which power corner, over which STCL values,
// under which temperature limit and solver options. This is the unit of
// work `thermosched serve` streams (one request per JSONL line) and
// ScenarioRunner executes; docs/SERVE.md is the full schema reference
// with copy-pasteable examples.
//
// Parsing is *strict*: unknown fields, wrong types, and out-of-range
// values all throw InvalidArgument with the offending field path, e.g.
//   scenario request: soc.kind: unknown SoC kind 'alhpa' (expected
//   'alpha', 'fig1', 'synthetic', or 'flp')
// A typo'd scenario file fails loudly instead of silently running the
// default scenario.
//
// Serialization (to_json) emits the *canonical full form*: every field
// explicit, fixed member order, shortest round-trip numbers. Therefore
// parse -> serialize is a normalizing step and
// serialize(parse(serialize(parse(x)))) == serialize(parse(x)) — the
// golden-file round-trip property tests/scenario_request_test.cpp pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/thermal_scheduler.hpp"
#include "thermal/analyzer.hpp"
#include "util/json.hpp"

namespace thermo::scenario {

/// What kind of work a request describes. Every kind lowers onto the
/// same SoC/model machinery but produces a kind-specific result record
/// (docs/SERVE.md "Request kinds"):
///   * kStclSweep — Algorithm 1 once per STCL value (the original and
///     default request shape);
///   * kPtrace — power-trace replay: integrate a HotSpot .ptrace
///     (inline text or file) step by step through the transient RC
///     oracle, residual heat carrying between steps;
///   * kChained — generate a schedule at one STCL value, then
///     re-validate it with the chained oracle (sessions run back to
///     back with an optional cooling gap instead of restarting from
///     ambient — the paper's independent-session assumption, stressed);
///   * kGridSteady — fine-resolution steady-state grid solve: the SoC's
///     test powers are spread over a rows×cols cell grid
///     (thermal::GridThermalModel) and solved through the cached,
///     fill-ordered sparse factor — the 100k-node workload.
enum class RequestKind {
  kStclSweep,
  kPtrace,
  kChained,
  kGridSteady,
};

/// Canonical spelling used in JSON ("stcl_sweep", "ptrace", "chained",
/// "grid_steady").
const char* request_kind_name(RequestKind kind);

/// Where the system under test comes from.
enum class SocKind {
  kAlpha,      ///< the paper's 15-core Alpha-like SoC (soc::alpha_soc)
  kFig1,       ///< the 7-core motivating example (soc::fig1_soc)
  kSynthetic,  ///< random slicing floorplan (soc::make_synthetic_soc)
  kFlp         ///< HotSpot .flp file + uniform test power density
};

/// Canonical spelling used in JSON ("alpha", "fig1", "synthetic", "flp").
const char* soc_kind_name(SocKind kind);

/// Generator parameters for SocKind::kSynthetic — soc::SyntheticOptions
/// plus the RNG seed that makes the scenario reproducible.
struct SyntheticSpec {
  std::uint64_t seed = 1;
  std::size_t cores = 12;
  double chip_width = 0.016;       ///< metres
  double chip_height = 0.016;      ///< metres
  double power_density_min = 2e5;  ///< W/m^2
  double power_density_max = 2e6;  ///< W/m^2
  double test_length_min = 1.0;    ///< s
  double test_length_max = 1.0;    ///< s

  bool operator==(const SyntheticSpec&) const = default;
};

/// SoC selection: a kind plus its kind-specific parameters and a
/// power-corner multiplier.
struct SocSelector {
  SocKind kind = SocKind::kAlpha;

  /// DVFS/corner scaling: every core's test power is multiplied by this
  /// after construction. Does not affect geometry, so requests that
  /// differ only in power_scale share one cached RCModel.
  double power_scale = 1.0;

  // kind == kFlp
  std::string flp_path;
  double flp_density = 1.0e6;  ///< uniform test power density [W/m^2]

  // kind == kSynthetic
  SyntheticSpec synthetic;

  /// Key identifying the *geometry* (floorplan + package) this selector
  /// produces — the unit of RCModel sharing in ScenarioRunner. Fields
  /// that only scale powers (power_scale, flp_density, the synthetic
  /// power/length ranges) are deliberately excluded: the RC network is
  /// identical across them.
  std::string geometry_key() const;

  bool operator==(const SocSelector&) const = default;
};

/// STCL values to schedule at: a single value (min == max) or an
/// inclusive range swept in `step` increments.
struct StclSpan {
  double min = 50.0;
  double max = 50.0;
  double step = 10.0;

  bool single() const { return min == max; }

  /// The expanded value list (via core::stcl_range; never empty).
  std::vector<double> values() const;
};

/// Oracle options forwarded to thermal::ThermalAnalyzer.
struct SolverSpec {
  double dt = 1e-3;       ///< backward-Euler step [s]
  bool transient = true;  ///< false = steady-state (faster, pessimistic)
  /// Always kSparse; not part of the canonical form and not read (see
  /// thermal::SolverBackend). The parser accepts a legacy
  /// `solver.backend` of "auto" or "sparse" and drops it.
  thermal::SolverBackend backend = thermal::SolverBackend::kSparse;
};

/// Kind kPtrace: the power trace to replay and the wall-clock length of
/// one trace step. Exactly one of `path` (a .ptrace file on disk) or
/// `text` (the .ptrace content inline — what `thermosched gen` emits so
/// streams stay self-contained) must be set.
struct PtraceSpec {
  std::string path;           ///< .ptrace file (empty when text is used)
  std::string text;           ///< inline .ptrace content (empty when path)
  double step_duration = 0.001;  ///< seconds simulated per trace line [s]
};

/// Kind kChained: how the schedule's sessions are replayed back to back.
struct ChainedSpec {
  /// Idle tester seconds between consecutive sessions; the chip cools
  /// (zero power) for this long before the next session starts.
  double cooling_gap = 0.0;
};

/// Kind kGridSteady: die discretisation for the grid oracle. rows*cols
/// cells + 10 package nodes; 317x317 crosses 100k nodes. Capped at
/// kMaxGridSide per axis so one request stays a bounded work item.
struct GridSpec {
  std::size_t rows = 64;
  std::size_t cols = 64;
};

/// Largest grid rows/cols a single request may ask for (1024² cells
/// ≈ 1.05M nodes — already ~10× the 100k-node gate).
inline constexpr std::size_t kMaxGridSide = 1024;

struct ScenarioRequest {
  /// Caller-chosen identifier echoed into the result record. When empty,
  /// `thermosched serve` substitutes "line-<input line number>".
  std::string id;

  RequestKind kind = RequestKind::kStclSweep;

  /// Optional SLO deadline in seconds (from the start of the batch's
  /// execution window); 0 = unset. Valid for every kind — it describes
  /// the serving contract, not the scenario — and feeds the edf policy
  /// plus the per-request deadline_met flag in the serve summary. Never
  /// changes the result record.
  double deadline_s = 0.0;

  /// Relative scheduling weight (finite, > 0; default 1): higher values
  /// start earlier under the 'priority' policy. Like deadline_s, a
  /// serving knob only — never part of the result record.
  double priority = 1.0;

  SocSelector soc;

  /// kind == kPtrace only.
  PtraceSpec ptrace;

  /// kind == kChained only.
  ChainedSpec chained;

  /// kind == kGridSteady only.
  GridSpec grid;

  double tl = 155.0;  ///< temperature limit TL [deg C]
  StclSpan stcl;

  /// STC normalisation; 0 selects the per-SoC default, auto_stc_scale()
  /// (scenario/runner.hpp).
  double stc_scale = 0.0;

  double weight_factor = 1.1;  ///< W multiplier on violation (paper: 1.1)

  /// Default raise-limit, matching the CLI: a served batch should report
  /// the effective TL rather than die on one hot solo core.
  core::SoloViolationPolicy solo_policy = core::SoloViolationPolicy::kRaiseLimit;
  core::CoreOrder core_order = core::CoreOrder::kDescendingSoloTc;

  SolverSpec solver;
};

/// Parses + validates one request from its JSON form. Throws
/// InvalidArgument ("scenario request: <field>: <problem>") on any
/// unknown field, type mismatch, or out-of-range value.
ScenarioRequest parse_request(const JsonValue& json);

/// Parses a request from JSON text (one JSONL line). Malformed JSON
/// throws ParseError; invalid content throws InvalidArgument as above.
ScenarioRequest parse_request_line(std::string_view text);

/// Canonical full-form serialization (see file comment).
JsonValue to_json(const ScenarioRequest& request);

/// to_json(request).dump() — one JSONL line, without the newline.
std::string to_json_line(const ScenarioRequest& request);

}  // namespace thermo::scenario
