// ThermalAnalyzer: the façade the scheduler talks to. Wraps an RCModel
// and exposes "simulate this test session, give me per-core maximum
// temperatures" — the simulate() oracle of Algorithm 1 — together with
// the cumulative simulated-time accounting the paper calls
// "simulation effort". Each oracle has one full-session path: a steady
// session is solve_steady_state (the model's own factor of G,
// RCModel::steady_factor), a transient one is simulate_session_from
// at ambient (ThermalSolverCache's per-(model, dt) stepper). Algorithm 1
// asks its one question in session form, session_peaks(cores,
// core_power, duration), for the solo pre-pass (one core) and every
// validation. Under the steady oracle a one-core session reads the
// model's self-resistance table (RCModel::self_resistance), and a larger
// one path-solves the session cores. Under the transient oracle a
// session's rises are the power-weighted sum of its cores' unit-step
// responses, read from the model's StepResponseTable
// (RCModel::step_responses) and filled on first use; that is linear
// algebra on backward Euler from ambient, within 1e-12 relative of the
// stepped session on the rise (docs/SOLVERS.md "Transient response
// table"). Every other transient path (simulate_session, chained,
// cool_down) steps the session itself.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/sparse_cholesky.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"

namespace thermo::thermal {

/// The factorization every thermal solve uses: sparse LDLᵗ
/// (linalg/sparse_cholesky.hpp; docs/SOLVERS.md). One value, kept only
/// so callers that still name it (ThermalAnalyzer::Options::backend,
/// scenario::SolverSpec::backend) compile; nothing reads it.
enum class SolverBackend { kSparse };

/// Outcome of simulating one test session.
struct SessionSimulation {
  /// Per-block maximum temperature reached during the session [deg C].
  std::vector<double> peak_temperature;
  /// Maximum over all blocks [deg C].
  double max_temperature = 0.0;
  /// Index of the hottest block.
  std::size_t hottest_block = 0;
};

/// What Algorithm 1's pre-pass and validation read from one session
/// (ThermalAnalyzer::session_peaks).
struct SessionPeaks {
  /// core_peak[t]: peak temperature of the t-th session core [deg C].
  std::vector<double> core_peak;
  /// Maximum over the session's cores, which is the block maximum
  /// [deg C].
  double max_temperature = 0.0;
};

/// ThermalAnalyzer::Options (declared outside the class so that its
/// constructors can default it).
struct AnalyzerOptions {
  double dt = 1e-3;  ///< transient step [s]
  /// When true (default), sessions are simulated transiently for their
  /// actual duration; when false, steady-state temperatures are used
  /// as a (faster, more pessimistic) oracle.
  bool transient = true;
  /// Always kSparse; not read (see SolverBackend).
  SolverBackend backend = SolverBackend::kSparse;
};

class ThermalAnalyzer {
 public:
  using Options = AnalyzerOptions;

  /// Builds a private model of `fp` and `package`.
  ThermalAnalyzer(const floorplan::Floorplan& fp, const PackageParams& package,
                  Options options = {});

  /// Shares an existing model instead of building a private one.
  /// Analyzers sharing one model share its factors too (the model owns
  /// G's; steppers are keyed by its identity) — this is how a
  /// sweep::for_each_index gives every worker thread its own effort
  /// accounting (analyzers are not thread-safe) while the expensive
  /// factorizations are computed once. Throws InvalidArgument on null.
  explicit ThermalAnalyzer(std::shared_ptr<const RCModel> model,
                           Options options = {});

  /// Adds the pending solve counts to the obs registry (flush_counters).
  ~ThermalAnalyzer();
  ThermalAnalyzer(const ThermalAnalyzer&) = delete;
  ThermalAnalyzer& operator=(const ThermalAnalyzer&) = delete;

  const RCModel& model() const { return *model_; }
  const Options& options() const { return options_; }

  /// Simulates a session: `block_power[i]` watts in every block for
  /// `duration` seconds starting from ambient. Adds `duration` to the
  /// cumulative simulation effort. The transient oracle is
  /// simulate_session_from(block_power, duration, ambient_state(model()))
  /// without the final state; the steady oracle is solve_steady_state's
  /// block temperatures.
  SessionSimulation simulate_session(const std::vector<double>& block_power,
                                     double duration);

  /// The cores' peaks and max_temperature of the session in which core
  /// cores[t] dissipates core_power[t] watts for `duration` seconds and
  /// every other block nothing: simulate_session on that power map, with
  /// the same checks and the same effort and count charge. `cores` must
  /// be non-empty distinct block indices and `core_power` must hold one
  /// power per core (InvalidArgument otherwise). Algorithm 1 asks it
  /// about each core alone in the solo pre-pass and about each candidate
  /// session in validation. The steady oracle answers a one-core session
  /// from RCModel::self_resistance (ambient + p·rᵢ, within 1e-13 relative
  /// of the full solve on the rise; docs/SOLVERS.md "Self-resistance
  /// table") and a larger one by solving only the union of the cores'
  /// elimination-tree paths (SparseCholeskyFactor::solve_subset), so the
  /// peaks are bit for bit those of the full solve. The transient oracle
  /// answers by superposition: core i's rise is Σⱼ pⱼ·uⱼ(d)[i], summed
  /// over the powered cores j in session order, with uⱼ(d) the model's
  /// unit-step response (RCModel::step_responses, unit_step_response), so
  /// a one-core session reads ambient + p·uᵢ(d)[i] and repeats its
  /// pre-pass peak bit for bit. It is within 1e-12 relative of the
  /// stepped session on the rise (docs/SOLVERS.md "Transient response
  /// table"). An uncached response costs one unit simulation, so a
  /// session none of whose responses are stored costs |S| of them; past
  /// the table's byte cap a response is computed without being stored,
  /// with the same bits. Either oracle takes the maximum over the cores,
  /// which the maximum principle makes the block maximum (docs/SOLVERS.md
  /// "Path solves"); when no core heats up, every peak and the maximum
  /// are ambient, as the full session's are.
  SessionPeaks session_peaks(std::span<const std::size_t> cores,
                             std::span<const double> core_power,
                             double duration);

  /// A session simulation that starts from an arbitrary node state
  /// (ambient_state(model()) starts cold) and also returns the final
  /// state, enabling *chained* schedules where one session's residual
  /// heat carries into the next (relaxing the paper's
  /// independent-session assumption). Charges effort like
  /// simulate_session. Requires transient mode.
  struct Chained {
    SessionSimulation session;
    std::vector<double> final_state;  ///< absolute node temperatures
  };
  Chained simulate_session_from(const std::vector<double>& block_power,
                                double duration,
                                const std::vector<double>& initial_state);

  /// Zero-power cool-down for `gap` seconds from a given state (no
  /// effort charge - the tester is idle, nothing is being simulated for
  /// schedule admission). Returns the state after the gap.
  std::vector<double> cool_down(const std::vector<double>& state,
                                double gap) const;

  /// Cumulative simulated test-session time [s] — the paper's
  /// "simulation effort".
  double simulation_effort() const { return simulation_effort_; }

  /// Number of effort-charging calls so far: simulate_session,
  /// simulate_session_from and session_peaks.
  std::size_t simulation_count() const { return simulation_count_; }

  /// Resets the effort accounting (a scheduler run starts from zero).
  void reset_effort();

  /// Adds session_peaks' steady table reads (one core), path solves and
  /// transient unit-step response reads made since the last flush to the
  /// `thermal.solo_lookups`, `thermal.solves` and
  /// `thermal.response_lookups` counters. All count locally, so the hot path
  /// touches no shared counter; core::solo_prepass and
  /// ThermalAwareScheduler::generate flush once per run, and the
  /// destructor flushes the rest. (A steady simulate_session counts at
  /// the call, in solve_steady_state.)
  void flush_counters();

 private:
  void fit_scratch();  // sizes scratch_ to the model on first use
  /// uⱼ(d) for j = `core` and d = `duration` at options_.dt, one value
  /// per block: the model's stored row, or a fill (stored when the table
  /// has room, else kept in unstored_response_ until the next call).
  const double* step_response(std::size_t core, double duration);
  /// The session outcome from per-node peaks: keeps the block entries,
  /// finds the maximum and hottest block, and charges `duration`.
  SessionSimulation finish_session(std::vector<double> node_peaks,
                                   double duration);

  std::shared_ptr<const RCModel> model_;
  Options options_;
  double simulation_effort_ = 0.0;
  std::size_t simulation_count_ = 0;
  linalg::PathScratch scratch_;  // session_peaks' path solves
  std::size_t pending_solo_lookups_ = 0;
  std::size_t pending_solves_ = 0;
  std::size_t pending_response_lookups_ = 0;
  std::vector<double> unstored_response_;  // a response past the cap
};

}  // namespace thermo::thermal
