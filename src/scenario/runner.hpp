// ScenarioRunner: lowers parsed ScenarioRequests onto the scheduling
// stack (SoC construction -> prepared model -> ThermalAwareScheduler per
// STCL value) and renders machine-readable result records.
//
// Model sharing is the whole point of running scenarios through one
// runner instead of one process each: every request whose SocSelector
// has the same geometry_key() shares one cache entry, and the entry
// holds everything built from that geometry, each part on first use:
//   * per selector without its power_scale, the SoC, built once; a
//     request copies it, which shares its floorplan, then scales its
//     test powers and validates the copy in O(n);
//   * one core::PreparedModel: the RCModel, which on the first
//     steady-oracle request factors G and tabulates every block's
//     self-resistance (G⁻¹)ᵢᵢ, and keeps both (RCModel::steady_factor,
//     RCModel::self_resistance), so later steady requests on the
//     geometry run their solo pre-pass in O(n); and the paper's session
//     model;
//   * per grid_steady discretisation (rows, cols), the GridThermalModel,
//     which likewise factors its conductance matrix once and keeps it.
// A 100-request Alpha batch builds the Alpha SoC once and factors G
// once. Transient steppers stay in ThermalSolverCache
// (thermal/solver_cache.hpp), keyed by (model, dt). Evicting a geometry
// drops all of its parts together.
//
// Thread safety: run() is safe to call concurrently, which is how
// serve_stream fans requests across threads (dispatch::run_batch). The
// geometry map is guarded by the runner's mutex; an entry's parts are
// built under the entry's own mutex, never under the runner's, and are
// read-only once built. The Stats counts are relaxed atomics, so no
// build takes the runner's mutex. A failed build caches nothing, so
// every request that hits it gets the same ok:false record. Per-request failures — bad .flp paths, scheduler throws — are
// captured in the result record (`ok:false` + the error message); run()
// itself only propagates non-thermo exceptions (e.g. bad_alloc).
//
// Determinism: a result record depends only on the request content,
// never on thread interleaving or cache state, so a batch's output is
// bit-identical for 1 and N threads (pinned by the serve-matrix smoke
// tests, cmake/RunServeMatrix.cmake).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/prepared_model.hpp"
#include "core/soc_spec.hpp"
#include "core/stcl_sweep.hpp"
#include "scenario/request.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::scenario {

/// Result record for one request; serialized as one JSONL line by
/// to_json (schema in docs/SERVE.md). Points are the same
/// core::StclSweepPoint the `thermosched sweep` path produces — the
/// runner lowers onto core::sweep_stcl rather than reimplementing it.
/// kind == kPtrace: what the trace replay observed.
struct PtraceOutcome {
  std::size_t steps = 0;          ///< trace lines replayed
  double duration = 0.0;          ///< steps * step_duration [s]
  double max_temperature = 0.0;   ///< hottest block across all steps [deg C]
  std::string hottest;            ///< name of that block
};

/// kind == kChained: the schedule plus its chained re-validation.
struct ChainedOutcome {
  double stcl = 0.0;
  double schedule_length = 0.0;   ///< [s]
  std::size_t sessions = 0;
  double effective_tl = 0.0;      ///< after any raise-limit adjustment
  double cooling_gap = 0.0;       ///< [s]
  /// Hottest core under the paper's independent-session assumption (the
  /// scheduler's own oracle, every session starting from ambient)...
  double independent_max = 0.0;
  /// ...and under chained replay with residual heat carry-over. The gap
  /// between the two is the quantity this request kind measures.
  double chained_max = 0.0;
  std::size_t violations = 0;     ///< chained limit violations
  bool safe = true;               ///< no chained violation
};

/// kind == kGridSteady: the fine-grid steady-state solve.
struct GridOutcome {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t nodes = 0;              ///< rows*cols + 10 package nodes
  double max_cell_temperature = 0.0;  ///< hottest cell [deg C]
  double mean_cell_temperature = 0.0; ///< arithmetic mean over cells [deg C]
  double max_block_temperature = 0.0; ///< hottest block's covered-cell max
  std::string hottest;                ///< name of that block
};

struct ScenarioResult {
  std::string id;
  RequestKind kind = RequestKind::kStclSweep;
  bool ok = false;
  std::string error;     ///< set when !ok
  std::string soc_name;  ///< empty when the SoC could not be built
  std::size_t cores = 0;
  /// One point per STCL value, in request order (kind == kStclSweep).
  std::vector<core::StclSweepPoint> points;
  PtraceOutcome ptrace;    ///< kind == kPtrace
  ChainedOutcome chained;  ///< kind == kChained
  GridOutcome grid;        ///< kind == kGridSteady
  /// Total simulated seconds across all points — the paper's effort
  /// metric, and the deterministic "timing" field of the record (wall
  /// time would break 1-vs-N-thread reproducibility; serve reports it
  /// separately in its stderr summary).
  double simulation_effort = 0.0;
};

/// Serializes a result record (canonical member order, deterministic).
JsonValue to_json(const ScenarioResult& result);

/// Per-SoC default STC normalisation, used when a request (or the CLI's
/// --stc-scale) is 0: the Alpha SoC ships a calibrated scale; every
/// other SoC uses the generic 2.8e-3 that places typical block-level
/// SoCs on the paper's 20..100 STCL axis.
double auto_stc_scale(SocKind kind);

/// A kind-ptrace request's replay on `soc`, which run() calls once the
/// SoC is built; fills result.ptrace and result.simulation_effort.
/// Public so a test can pick the package, e.g. a sub-zero ambient.
void run_ptrace(const ScenarioRequest& request, const core::PreparedSoc& soc,
                ScenarioResult& result);

class ScenarioRunner {
 public:
  ScenarioRunner() = default;

  /// Executes one request: builds (or reuses) the SoC's prepared model,
  /// runs Algorithm 1 once per STCL value, returns the filled record.
  /// Thermo errors land in the record instead of propagating.
  ScenarioResult run(const ScenarioRequest& request);

  /// Builds the SocSpec a selector describes (validated; power_scale
  /// applied). Throws on invalid selectors, e.g. unreadable .flp files.
  static core::SocSpec build_soc(const SocSelector& selector);

  /// The shared model for a selector's geometry: its prepared entry's,
  /// built on first use. `soc` must be the selector's build_soc result.
  std::shared_ptr<const thermal::RCModel> model_for(
      const SocSelector& selector, const core::SocSpec& soc);

  struct Stats {
    std::size_t model_hits = 0;    ///< requests that reused a built model
    /// Model builds: a PreparedModel per distinct geometry and a grid
    /// model per distinct (geometry, rows×cols), plus re-builds after
    /// eviction.
    std::size_t model_misses = 0;
    /// SoC builds: distinct selectors ignoring power_scale, plus
    /// re-builds after eviction.
    std::size_t soc_builds = 0;
  };
  Stats stats() const;

  /// Cached-geometry bound. Like ThermalSolverCache, the cache is capped
  /// so a long-lived runner fed ever-new geometries (synthetic seeds,
  /// .flp paths) cannot grow memory monotonically; the least recently
  /// used geometry is evicted with all its parts and simply rebuilt if
  /// it returns.
  static constexpr std::size_t kMaxCachedModels = 64;

  /// SoCs kept per geometry (selectors differing in power or length
  /// ranges but not in geometry); the oldest is dropped beyond it.
  static constexpr std::size_t kMaxSocsPerModel = 8;

  /// Grid models kept per geometry (distinct rows×cols); the oldest is
  /// dropped beyond it.
  static constexpr std::size_t kMaxGridsPerModel = 4;

 private:
  /// One geometry: its built SoCs, its PreparedModel and its grid
  /// models, each built on first use under the entry's own mutex,
  /// outside the runner's, so a build stalls only the requests that
  /// need it. A failed build leaves nothing behind, so every request
  /// that hits it fails the same way.
  struct Entry {
    std::mutex mutex;
    /// SoCs with a validated floorplan, keyed by their selector with
    /// power_scale 1 (oldest first); a request copies one, scales its
    /// powers and validates the copy.
    std::vector<std::pair<SocSelector, std::shared_ptr<const core::SocSpec>>>
        socs;
    std::shared_ptr<const core::PreparedModel> model;
    /// Grid models, keyed by their rows() and cols() (oldest first).
    std::vector<std::shared_ptr<const thermal::GridThermalModel>> grids;
    /// LRU stamp, guarded by the runner's mutex, not the entry's.
    std::uint64_t last_used = 0;
  };

  /// The selector's geometry entry, inserted empty on first use.
  std::shared_ptr<Entry> entry_for(const SocSelector& selector);
  /// The request's SoC: the entry's built SoC with power_scale applied,
  /// validated like build_soc's result.
  core::SocSpec soc_for(Entry& entry, const SocSelector& selector);
  /// The entry's PreparedModel, built from `soc` on first use.
  std::shared_ptr<const core::PreparedModel> prepared(Entry& entry,
                                                      const core::SocSpec& soc);
  /// The entry's grid model at grid.rows × grid.cols, built from `soc`'s
  /// floorplan and package on first use.
  std::shared_ptr<const thermal::GridThermalModel> grid_model(
      Entry& entry, const core::SocSpec& soc, const GridSpec& grid);
  /// Counts one model lookup: a build (miss) or a reuse (hit).
  void count_model(bool built);

  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  std::uint64_t use_counter_ = 0;
  std::atomic<std::size_t> model_hits_{0};
  std::atomic<std::size_t> model_misses_{0};
  std::atomic<std::size_t> soc_builds_{0};
};

}  // namespace thermo::scenario
