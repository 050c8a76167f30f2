// Algorithm 1 of the paper: thermal-safe test schedule generation guided
// by the test session thermal model.
//
// Flow:
//   1. *Pre-pass* (paper lines 1-7): simulate every core alone, record
//      BCMT(i) (solo_prepass: ThermalAnalyzer::session_peaks on {i}). The
//      steady oracle solves nothing for a powered core: BCMT(i) is
//      ambient + pᵢ·(G⁻¹)ᵢᵢ from the model's self-resistance table; the
//      transient oracle reads ambient + pᵢ·uᵢ(Tᵢ)[i] from the model's
//      unit-step responses (RCModel::step_responses), filling the row by
//      one unit simulation on first use. Either way each core is
//      charged as one simulation. The pre-pass depends on neither TL nor
//      STCL, so sweep_stcl runs it once and hands it to every point's
//      generate(PreparedSoc, analyzer, prepass).
//      Cores violating TL are handled per SoloViolationPolicy inside
//      generate(), with the paper's two remedies: "fix the core's test
//      infrastructure" (refuse) or "raise TL". Every core is scheduled.
//   2. *Session construction* (lines 9-15): scan the unscheduled cores
//      in a deterministic order and greedily add each core whose
//      addition keeps STC(TS) <= STCL. Each candidate re-evaluates only
//      itself and its active neighbours (O(deg), bit-identical to a
//      full rescan; SessionThermalModel::characteristic_with). The scan
//      walks a compacted list of live candidates: a core whose solo STC
//      term already exceeds STCL can never be accepted, so it is skipped
//      with the same result (docs/SCHEDULING.md "Live candidates").
//   3. *Validation* (lines 16-23): simulate the session with the full RC
//      model (ThermalAnalyzer::session_peaks on the session cores and
//      their powers, the pre-pass's question; the steady oracle reads a
//      one-core session from the same table, so it repeats BCMT bit for
//      bit, and solves only the session cores' elimination-tree paths of
//      a larger one; the transient oracle sums the cores' unit-step
//      responses, which repeats BCMT for one core too). Every core whose
//      peak temperature reaches TL gets its weight multiplied by
//      weight_factor (1.1 in the paper), making it less likely to join a
//      busy session; the session is discarded and construction restarts.
//      Simulation effort accumulates either way.
//   4. Repeat until every core is scheduled (lines 24-28).
//
// Robustness beyond the pseudocode:
//   * if no core fits an empty session under STCL, the first
//     unscheduled core of the order is force-added alone (a single-core
//     session passed the pre-pass, so it must be thermally safe) —
//     otherwise tight STCL values would loop forever;
//   * an attempt cap turns pathological non-termination into an error.
//
// docs/SCHEDULING.md walks through the whole algorithm class by class
// (STCL semantics, solo-violation policies, result metrics).
#pragma once

#include "core/prepared_model.hpp"
#include "core/scheduler_result.hpp"
#include "core/session_model.hpp"
#include "core/soc_spec.hpp"
#include "thermal/analyzer.hpp"

namespace thermo::core {

/// What to do with a core whose *solo* test already violates TL.
enum class SoloViolationPolicy {
  kThrow,       ///< refuse to schedule (default; mirrors "fix the core")
  kRaiseLimit   ///< raise TL to the hottest solo temperature + 1 K
};

/// Order in which candidate cores are scanned during session
/// construction (the paper's FOR EACH over A, line 10, leaves this
/// open; the choice is deterministic here).
enum class CoreOrder {
  kInputOrder,        ///< floorplan/block order
  kDescendingPower,   ///< hottest testers first
  kDescendingSoloTc,  ///< descending solo thermal characteristic (default)
  kAscendingSoloTc    ///< coolest configuration first
};

struct ThermalSchedulerOptions {
  double temperature_limit = 145.0;  ///< TL [deg C]
  double stc_limit = 50.0;           ///< STCL (units of the session model)
  double weight_factor = 1.1;        ///< W multiplier on violation (paper: 1.1)
  SoloViolationPolicy solo_policy = SoloViolationPolicy::kThrow;
  CoreOrder core_order = CoreOrder::kDescendingSoloTc;
  /// Cap on validation simulations (construction attempts). The n
  /// solo pre-pass simulations are not counted.
  std::size_t max_attempts = 100000;
  SessionModelOptions model;
};

/// Output of the solo pre-pass (paper lines 1-7).
struct SoloPrepass {
  std::vector<double> bcmt;  ///< BCMT(i): core i's peak temperature alone
};

/// Validates `soc` against the analyzer, then simulates every core alone
/// (ThermalAnalyzer::session_peaks on the one core). The analyzer's
/// effort is reset before and after, and its solve counters are flushed.
/// Throws what SocSpec::validate throws.
SoloPrepass solo_prepass(const SocSpec& soc, thermal::ThermalAnalyzer& analyzer);

class ThermalAwareScheduler {
 public:
  explicit ThermalAwareScheduler(ThermalSchedulerOptions options = {});

  const ThermalSchedulerOptions& options() const { return options_; }

  /// Generates a thermal-safe schedule: runs the solo pre-pass, builds
  /// the session model from soc and options().model, then Algorithm 1.
  /// The analyzer provides the session_peaks() oracle; its effort
  /// counter is reset at the start of the run. Throws InvalidArgument on
  /// inconsistent inputs, LogicError when the attempt cap is exhausted.
  ScheduleResult generate(const SocSpec& soc,
                          thermal::ThermalAnalyzer& analyzer) const;

  /// The same run on a prepared geometry with the pre-pass already
  /// done: `prepass` must come from solo_prepass(soc.soc, ·) on an
  /// analyzer with the same model and oracle options (it validated
  /// `soc.soc`). The solo-violation policy still applies here. Uses the
  /// prepared session model instead of building one. Bit-identical to
  /// generate(soc.soc, analyzer). The prepared model was built with
  /// SessionModelOptions{}, so options().model may differ from it only
  /// in stc_scale (InvalidArgument otherwise).
  ScheduleResult generate(const PreparedSoc& soc,
                          thermal::ThermalAnalyzer& analyzer,
                          const SoloPrepass& prepass) const;

  /// Effective TL used in the last generate() call (differs from
  /// options().temperature_limit only under kRaiseLimit).
  double effective_temperature_limit() const { return effective_tl_; }

 private:
  /// Algorithm 1 proper: both generate() overloads end here.
  ScheduleResult schedule(const SocSpec& soc, const SessionThermalModel& model,
                          thermal::ThermalAnalyzer& analyzer,
                          const SoloPrepass& prepass) const;

  ThermalSchedulerOptions options_;
  mutable double effective_tl_ = 0.0;
};

}  // namespace thermo::core
