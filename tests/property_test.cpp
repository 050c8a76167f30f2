// Cross-module property sweeps over randomly generated SoCs
// (TEST_P over seeds): the scheduler invariants must hold for *any*
// valid input, not just the bundled evaluation systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/prepared_model.hpp"
#include "core/safety_checker.hpp"
#include "core/schedule.hpp"
#include "core/session_model.hpp"
#include "core/thermal_scheduler.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "obs/metrics.hpp"
#include "oracles/cholesky.hpp"
#include "oracles/ode.hpp"
#include "oracles/reference_cholesky.hpp"
#include "oracles/reference_thermal_scheduler.hpp"
#include "oracles/sparse_ops.hpp"
#include "soc/alpha.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo {
namespace {

core::SocSpec random_soc(std::uint64_t seed, std::size_t cores) {
  Rng rng(seed);
  soc::SyntheticOptions options;
  options.core_count = cores;
  // Keep densities moderate so solo tests stay below the TL used here.
  options.power_density_min = 1e5;
  options.power_density_max = 8e5;
  return soc::make_synthetic_soc(rng, options);
}

class SchedulerInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(SchedulerInvariants, CompleteSafeDeterministicAndAccounted) {
  const auto [seed, cores] = GetParam();
  const core::SocSpec soc = random_soc(seed, cores);
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);

  core::ThermalSchedulerOptions options;
  options.temperature_limit = 120.0;
  options.stc_limit = 500.0;
  options.solo_policy = core::SoloViolationPolicy::kRaiseLimit;
  const core::ThermalAwareScheduler scheduler(options);
  const core::ScheduleResult result = scheduler.generate(soc, analyzer);

  // 1. Completeness: every core scheduled exactly once.
  EXPECT_TRUE(result.schedule.is_complete(soc));
  EXPECT_NO_THROW(result.schedule.require_well_formed(soc));

  // 2. Safety: verified against the full simulator.
  const double tl = scheduler.effective_temperature_limit();
  const core::SafetyChecker checker(tl);
  const core::SafetyReport report =
      checker.check(soc, result.schedule, analyzer);
  EXPECT_TRUE(report.safe) << "seed " << seed << ": "
                           << report.to_string(soc);

  // 3. Accounting: effort >= schedule length; committed sessions match.
  EXPECT_GE(result.simulation_effort + 1e-12, result.schedule_length);
  EXPECT_EQ(result.outcomes.size(), result.schedule.session_count());

  // 4. Determinism.
  const core::ScheduleResult again = scheduler.generate(soc, analyzer);
  ASSERT_EQ(again.schedule.session_count(), result.schedule.session_count());
  for (std::size_t s = 0; s < again.schedule.sessions.size(); ++s) {
    EXPECT_EQ(again.schedule.sessions[s].cores,
              result.schedule.sessions[s].cores);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSocs, SchedulerInvariants,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Values(4u, 8u, 14u)));

/// A random SoC for the thermal invariants: `cores` blocks, so
/// cores + 10 package nodes thermal nodes.
struct ThermalCase {
  std::uint64_t seed;
  std::size_t cores;
};

/// Test-name printer: the 10-core cases print as their seed alone, as
/// they did when the seed was the whole parameter.
void PrintTo(const ThermalCase& c, std::ostream* os) {
  *os << c.seed;
  if (c.cores != 10) *os << "_cores" << c.cores;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class ThermalInvariants : public ::testing::TestWithParam<ThermalCase> {};

TEST_P(ThermalInvariants, SteadyStateBoundsAndMonotonicity) {
  const core::SocSpec soc = random_soc(GetParam().seed + 100, GetParam().cores);
  const thermal::RCModel model(soc.flp, soc.package);

  // M-matrix property: from ambient under constant non-negative power,
  // every backward-Euler iterate is >= the previous one at every node
  // ((C/dt + G)^-1 is entrywise non-negative). The 1 s horizon runs as
  // one-step calls, each starting from the last one's final state.
  const auto power = soc.test_powers();
  const thermal::TransientOptions options;
  std::vector<double> previous = thermal::ambient_state(model);
  std::size_t decreases = 0;
  for (int step = 0; step < 1000; ++step) {
    const std::vector<double> temperature =
        thermal::simulate_transient(model, power, options.dt, previous, options)
            .final_temperature;
    for (std::size_t n = 0; n < temperature.size(); ++n) {
      if (temperature[n] < previous[n] - 1e-12) ++decreases;
    }
    previous = temperature;
  }
  EXPECT_EQ(decreases, 0u);
  const auto transient = thermal::simulate_transient(
      model, power, 1.0, thermal::ambient_state(model), options);

  // Steady state bounds 1 s transient peaks (paper modification 1).
  const auto steady = thermal::solve_steady_state(model, power);
  for (std::size_t n = 0; n < model.node_count(); ++n) {
    EXPECT_LE(transient.peak_temperature[n], steady.temperature[n] + 1e-6);
  }

  // Adding power to one core heats every node (or leaves it equal).
  std::vector<double> more = power;
  more[0] += 5.0;
  const auto hotter = thermal::solve_steady_state(model, more);
  for (std::size_t n = 0; n < model.node_count(); ++n) {
    EXPECT_GE(hotter.temperature[n] + 1e-12, steady.temperature[n]);
  }
}

// Each oracle has one full-session path (thermal/analyzer.hpp): a
// transient simulate_session is simulate_session_from at ambient without
// the final state, and a steady one is solve_steady_state's block
// temperatures. On random sessions of random SoCs both must match those
// references bit for bit: peaks, maximum, hottest block, and the effort
// and count charged.
TEST_P(ThermalInvariants, SessionPathsMatchTheirReferenceUnderBothOracles) {
  const std::size_t cores = GetParam().cores;
  const core::SocSpec soc = random_soc(GetParam().seed + 600, cores);
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  Rng rng(GetParam().seed);
  std::vector<std::size_t> order(cores);
  for (std::size_t i = 0; i < cores; ++i) order[i] = i;
  constexpr int kTrials = 5;
  for (const bool transient : {true, false}) {
    thermal::ThermalAnalyzer::Options options;
    options.transient = transient;
    thermal::ThermalAnalyzer analyzer(model, options);
    thermal::ThermalAnalyzer chained(model, options);
    double effort = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      rng.shuffle(order);
      core::TestSession session;
      const auto k = rng.uniform_int(1, std::min<long long>(6, cores));
      session.cores.assign(order.begin(), order.begin() + k);
      const std::vector<double> power = session.power_map(soc);
      // Not a whole number of 1 ms steps, so the remainder step runs.
      const double duration = session.length(soc) * rng.uniform(0.2, 1.2);
      effort += duration;

      const thermal::SessionSimulation got =
          analyzer.simulate_session(power, duration);
      thermal::SessionSimulation want;
      if (transient) {
        want = chained
                   .simulate_session_from(power, duration,
                                          thermal::ambient_state(*model))
                   .session;
      } else {
        const std::vector<double> steady =
            thermal::solve_steady_state(*model, power).temperature;
        want.peak_temperature.assign(
            steady.begin(), steady.begin() + static_cast<long>(cores));
        const auto hottest = std::max_element(want.peak_temperature.begin(),
                                              want.peak_temperature.end());
        want.max_temperature = *hottest;
        want.hottest_block =
            static_cast<std::size_t>(hottest - want.peak_temperature.begin());
      }
      ASSERT_EQ(got.peak_temperature.size(), cores);
      ASSERT_EQ(want.peak_temperature.size(), cores);
      for (std::size_t b = 0; b < cores; ++b) {
        EXPECT_EQ(bits(got.peak_temperature[b]),
                  bits(want.peak_temperature[b]))
            << "transient=" << transient << " trial=" << trial
            << " block=" << b;
      }
      EXPECT_EQ(bits(got.max_temperature), bits(want.max_temperature))
          << "transient=" << transient << " trial=" << trial;
      EXPECT_EQ(got.hottest_block, want.hottest_block)
          << "transient=" << transient << " trial=" << trial;
    }
    EXPECT_EQ(bits(analyzer.simulation_effort()), bits(effort));
    EXPECT_EQ(analyzer.simulation_count(), std::size_t{kTrials});
    if (transient) {
      EXPECT_EQ(bits(chained.simulation_effort()), bits(effort));
      EXPECT_EQ(chained.simulation_count(), std::size_t{kTrials});
    }
  }
}

// Seeds 1..6 on 10-core SoCs, plus two SoCs of 300 cores (310 thermal
// nodes) — the sizes Algorithm 1 sees on large synthetic requests.
INSTANTIATE_TEST_SUITE_P(
    Seeds, ThermalInvariants,
    ::testing::Values(ThermalCase{1, 10}, ThermalCase{2, 10},
                      ThermalCase{3, 10}, ThermalCase{4, 10},
                      ThermalCase{5, 10}, ThermalCase{6, 10},
                      ThermalCase{1, 300}, ThermalCase{2, 300}));

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale =
        std::max(1e-30, std::max(std::fabs(a[i]), std::fabs(b[i])));
    worst = std::max(worst, std::fabs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(SolverBackendTest, BackendsAgreeOnRandomSyntheticSocs) {
  // The sparse solve path against the dense linalg oracles on the same
  // network: steady state vs dense Cholesky of G, and the backward-Euler
  // transient vs LinearImplicitStepper (dense LU of C/dt + G). Two
  // direct factorizations of one well-conditioned SPD system, so the
  // documented 1e-9 relative bound is generous.
  constexpr double kTolerance = 1e-9;
  const std::tuple<std::uint64_t, std::size_t> cases[] = {
      {1, 40}, {5, 40}, {9, 40}, {3, 300}};
  for (const auto& [seed, cores] : cases) {
    const core::SocSpec soc = random_soc(seed, cores);
    const thermal::RCModel model(soc.flp, soc.package);
    const linalg::DenseMatrix g = linalg::to_dense(model.conductance_sparse());
    const std::vector<double> power = soc.test_powers();
    const std::vector<double> node_power = model.expand_power(power);

    const auto steady = thermal::solve_steady_state(model, power);
    std::vector<double> steady_rise = steady.temperature;
    for (double& t : steady_rise) t -= model.package().ambient;
    EXPECT_LT(
        max_rel_diff(steady_rise, linalg::CholeskyFactor(g).solve(node_power)),
        kTolerance)
        << "seed=" << seed << " cores=" << cores;

    thermal::TransientOptions options;
    options.dt = 1e-3;
    const auto initial = thermal::ambient_state(model);
    const auto transient =
        thermal::simulate_transient(model, power, 0.035, initial, options);
    const linalg::LinearImplicitStepper oracle(g, model.capacitance(),
                                               options.dt);
    std::vector<double> rise(model.node_count(), 0.0);
    std::vector<double> peak_rise = rise;
    for (std::size_t step = 0; step < transient.steps; ++step) {
      rise = oracle.step(rise, node_power);
      for (std::size_t n = 0; n < rise.size(); ++n) {
        peak_rise[n] = std::max(peak_rise[n], rise[n]);
      }
    }
    ASSERT_EQ(transient.steps, 35u);
    std::vector<double> final_temperature(rise.size());
    std::vector<double> peak_temperature(rise.size());
    for (std::size_t n = 0; n < rise.size(); ++n) {
      final_temperature[n] = soc.package.ambient + rise[n];
      peak_temperature[n] = soc.package.ambient + peak_rise[n];
    }
    EXPECT_LT(max_rel_diff(transient.final_temperature, final_temperature),
              kTolerance)
        << "seed=" << seed << " cores=" << cores;
    EXPECT_LT(max_rel_diff(transient.peak_temperature, peak_temperature),
              kTolerance)
        << "seed=" << seed << " cores=" << cores;
  }
}

class SessionModelInvariants : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SessionModelInvariants, RthGrowsAsSessionsFill) {
  // Adding any core to a session never *decreases* another member's
  // equivalent resistance (paths to ground can only disappear).
  const core::SocSpec soc = random_soc(GetParam() + 200, 9);
  const core::SessionThermalModel model(soc.flp, soc.package, {});
  Rng rng(GetParam());
  std::vector<bool> active(soc.core_count(), false);
  const std::size_t member = rng.uniform_index(soc.core_count());
  active[member] = true;
  double previous = model.equivalent_resistance(active, member);
  for (std::size_t step = 0; step < soc.core_count(); ++step) {
    const std::size_t next = rng.uniform_index(soc.core_count());
    if (active[next]) continue;
    active[next] = true;
    const double rth = model.equivalent_resistance(active, member);
    if (std::isinf(previous)) {
      EXPECT_TRUE(std::isinf(rth));
    } else {
      EXPECT_GE(rth + 1e-15, previous);
    }
    previous = rth;
  }
}

TEST_P(SessionModelInvariants, StcIsMonotoneUnderMembershipGrowth) {
  const core::SocSpec soc = random_soc(GetParam() + 300, 8);
  const core::SessionThermalModel model(soc.flp, soc.package, {});
  const auto power = soc.test_powers();
  const std::vector<double> weight(soc.core_count(), 1.0);
  std::vector<bool> active(soc.core_count(), false);
  double previous = 0.0;
  for (std::size_t i = 0; i < soc.core_count(); ++i) {
    active[i] = true;
    const double stc = model.session_characteristic(active, power, weight);
    EXPECT_GE(stc, previous - 1e-12);
    previous = stc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionModelInvariants,
                         ::testing::Range<std::uint64_t>(1, 9));

// Incremental STC (SessionThermalModel::characteristic_with) against the
// full rescan (session_characteristic), compared with EXPECT_EQ: the
// scheduler's session construction is claimed bit-identical, not close.
class IncrementalStcExactness
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(IncrementalStcExactness, EveryConstructionStepMatchesTheRescan) {
  const auto [seed, cores] = GetParam();
  const core::SocSpec soc = random_soc(seed + 500, cores);
  Rng rng(seed);
  // Weights W = 1.1^k, k in 0..10, built as the scheduler builds them.
  std::vector<double> weight(cores, 1.0);
  for (double& w : weight) {
    for (std::size_t k = rng.uniform_index(11); k > 0; --k) w *= 1.1;
  }
  std::vector<double> power = soc.test_powers();
  // A zero-power core: TC 0 even when enclosed, so it may join anywhere.
  power[rng.uniform_index(cores)] = 0.0;

  std::size_t enclosed = 0;
  for (const bool vertical : {false, true}) {
    for (const double stc_scale : {1.0, 2.8e-3, 10.0, 0.37}) {
      core::SessionModelOptions options;
      options.include_vertical_path = vertical;
      options.stc_scale = stc_scale;
      const core::SessionThermalModel model(soc.flp, soc.package, options);

      std::vector<std::size_t> order(cores);
      for (std::size_t i = 0; i < cores; ++i) order[i] = i;
      rng.shuffle(order);
      // Accept most finite candidates, so sessions grow large enough to
      // enclose interior cores (STC +inf), which are then rejected.
      std::vector<bool> active(cores, false);
      double session_stc = 0.0;
      for (const std::size_t candidate : order) {
        active[candidate] = true;
        const auto step = model.characteristic_with(active, candidate,
                                                    session_stc, power, weight);
        const double expected =
            model.session_characteristic(active, power, weight);
        ASSERT_EQ(step.unscaled * stc_scale, expected)
            << "seed=" << seed << " cores=" << cores << " vertical=" << vertical
            << " stc_scale=" << stc_scale << " candidate=" << candidate;
        if (std::isinf(expected)) ++enclosed;
        if (std::isfinite(expected) && rng.chance(0.9)) {
          session_stc = step.unscaled;
        } else {
          active[candidate] = false;
        }
      }
    }
  }
  EXPECT_GT(enclosed, 0u) << "no step exercised an enclosed core";
}

INSTANTIATE_TEST_SUITE_P(
    RandomSocs, IncrementalStcExactness,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(20u, 90u, 400u)));

/// Tolerance of a steady table read (ambient + p·(G⁻¹)ᵢᵢ) against the
/// solve it replaces, relative to the rise. The largest gap measured on
/// the alg1-shape SoCs of 1010 to 10,010 nodes is 2.8e-15
/// (docs/SOLVERS.md "Self-resistance table").
constexpr double kTableRel = 1e-13;

/// `peak` within `rel` of `expected` on the rise over `ambient`. Both
/// temperatures are ambient + rise rounded, which adds up to one ulp of
/// the temperature to the gap (7.1e-15 at 45 °C, 1e-13 of a 0.07 K rise).
void expect_rise_near(double peak, double expected, double ambient,
                      double rel = kTableRel) {
  const double ulp =
      std::nextafter(expected, std::numeric_limits<double>::infinity()) -
      expected;
  EXPECT_NEAR(peak - ambient, expected - ambient,
              rel * (expected - ambient) + ulp);
}

// The path solve on one node, on the RC models Algorithm 1 runs on, in
// the min-degree ordering the models use: solve_subset on {i} bit for
// bit against the full solve at every node (the exactness argument is in
// linalg_sparse_cholesky_test.cpp and docs/SOLVERS.md), and a one-core
// ThermalAnalyzer::session_peaks, a self-resistance table read, within
// kTableRel of the full solve's rise at every core, with the same
// effort and count charge.
class PathSolveExactness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PathSolveExactness, EntrySolvesAndSoloPeaksMatchTheFullSolve) {
  const std::size_t cores = GetParam();
  const core::SocSpec soc = random_soc(cores, cores);
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  const linalg::SparseCholeskyFactor factor = linalg::factor_in_order(
      model->conductance_sparse(),
      linalg::min_degree_ordering(model->conductance_sparse()));
  const std::size_t n = model->node_count();
  linalg::PathScratch scratch(n);
  for (std::size_t i = 0; i < n; ++i) {
    double entry = i < cores ? soc.tests[i].power : 1.0;
    std::vector<double> rhs(n, 0.0);
    rhs[i] = entry;
    factor.solve_subset({&i, 1}, {&entry, 1}, scratch);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(entry),
              std::bit_cast<std::uint64_t>(factor.solve(rhs)[i]))
        << "cores=" << cores << " node=" << i;
    ASSERT_EQ(scratch.x, std::vector<double>(n, 0.0)) << "node=" << i;
  }

  thermal::ThermalAnalyzer::Options steady;
  steady.transient = false;
  thermal::ThermalAnalyzer path(model, steady);
  thermal::ThermalAnalyzer full(model, steady);
  const double ambient = soc.package.ambient;
  for (std::size_t i = 0; i < cores; ++i) {
    core::TestSession solo;
    solo.cores.push_back(i);
    const double peak = path
                            .session_peaks({&i, 1}, {&soc.tests[i].power, 1},
                                           soc.tests[i].length)
                            .core_peak[0];
    const thermal::SessionSimulation sim =
        full.simulate_session(solo.power_map(soc), solo.length(soc));
    SCOPED_TRACE("cores=" + std::to_string(cores) +
                 " core=" + std::to_string(i));
    expect_rise_near(peak, sim.peak_temperature[i], ambient);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(path.simulation_effort()),
            std::bit_cast<std::uint64_t>(full.simulation_effort()));
  EXPECT_EQ(path.simulation_count(), cores);
}

/// session_peaks on `cores` at their entries of `block_power` (zero
/// elsewhere) on `path` against simulate_session on `full` (both
/// steady analyzers over one model): bit for bit, except that a one-core
/// session with a positive rise is a self-resistance table read, within
/// kTableRel on the rise, whose maximum is its core's peak. When a core
/// heats, the full solve's hottest block is a session core.
void expect_session_peaks_match(thermal::ThermalAnalyzer& path,
                                thermal::ThermalAnalyzer& full,
                                const std::vector<std::size_t>& cores,
                                const std::vector<double>& block_power,
                                double duration) {
  std::vector<double> core_power;
  for (const std::size_t core : cores) core_power.push_back(block_power[core]);
  const thermal::SessionPeaks peaks =
      path.session_peaks(cores, core_power, duration);
  const thermal::SessionSimulation sim =
      full.simulate_session(block_power, duration);
  ASSERT_EQ(peaks.core_peak.size(), cores.size());
  const double ambient = path.model().package().ambient;
  if (cores.size() == 1 && sim.max_temperature > ambient) {
    SCOPED_TRACE("core=" + std::to_string(cores[0]));
    expect_rise_near(peaks.core_peak[0], sim.peak_temperature[cores[0]],
                     ambient);
    EXPECT_EQ(bits(peaks.max_temperature), bits(peaks.core_peak[0]));
    EXPECT_EQ(sim.hottest_block, cores[0]);
    return;
  }
  for (std::size_t t = 0; t < cores.size(); ++t) {
    EXPECT_EQ(bits(peaks.core_peak[t]), bits(sim.peak_temperature[cores[t]]))
        << "core=" << cores[t];
  }
  EXPECT_EQ(bits(peaks.max_temperature), bits(sim.max_temperature));
  if (sim.max_temperature > ambient) {
    EXPECT_NE(std::find(cores.begin(), cores.end(), sim.hottest_block),
              cores.end())
        << "hottest block " << sim.hottest_block;
  }
}

// Algorithm 1's steady validation on the RC models it runs on:
// solve_subset on random node sets S against solve() on S, and
// ThermalAnalyzer::session_peaks against simulate_session on random
// sessions with some cores at zero power, an all-zero-power session
// (every rise +0) and the all-cores session (a path union of nearly
// every node).
TEST_P(PathSolveExactness, SubsetSolvesAndSessionPeaksMatchTheFullSolve) {
  const std::size_t cores = GetParam();
  const core::SocSpec soc = random_soc(cores + 7, cores);
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  const std::size_t n = model->node_count();
  Rng rng(cores);
  linalg::PathScratch scratch(n);
  std::vector<std::size_t> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = i;
  const linalg::SparseMatrix& g = model->conductance_sparse();
  for (const std::vector<std::size_t>& perm :
       {std::vector<std::size_t>{}, linalg::min_degree_ordering(g)}) {
    const linalg::SparseCholeskyFactor factor =
        linalg::factor_in_order(g, perm);
    for (int trial = 0; trial < 40; ++trial) {
      // Mostly session-sized sets, some up to every node.
      const auto k = static_cast<std::size_t>(
          trial == 0 ? static_cast<long long>(n)
          : trial % 2 ? rng.uniform_int(1, std::min<long long>(12, n))
                      : rng.uniform_int(1, static_cast<long long>(n)));
      rng.shuffle(nodes);
      const std::vector<std::size_t> s(nodes.begin(),
                                       nodes.begin() + static_cast<long>(k));
      std::vector<double> rhs(n, 0.0);
      std::vector<double> values(k);
      for (std::size_t t = 0; t < k; ++t) {
        values[t] = rng.chance(0.25) ? 0.0 : rng.uniform(0.0, 20.0);
        rhs[s[t]] = values[t];
      }
      const std::vector<double> x = factor.solve(rhs);
      factor.solve_subset(s, values, scratch);
      for (std::size_t t = 0; t < k; ++t) {
        EXPECT_EQ(bits(values[t]), bits(x[s[t]]))
            << "cores=" << cores << " k=" << k << " node=" << s[t];
      }
      ASSERT_EQ(scratch.x, std::vector<double>(n, 0.0));
    }
  }

  thermal::ThermalAnalyzer::Options steady;
  steady.transient = false;
  thermal::ThermalAnalyzer path(model, steady);
  thermal::ThermalAnalyzer full(model, steady);
  std::vector<std::size_t> all(cores);
  for (std::size_t i = 0; i < cores; ++i) all[i] = i;
  for (int trial = 0; trial < 60; ++trial) {
    rng.shuffle(all);
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(1, std::min<long long>(8, cores)));
    const std::vector<std::size_t> session(all.begin(),
                                           all.begin() + static_cast<long>(k));
    std::vector<double> power(cores, 0.0);
    for (const std::size_t core : session) {
      power[core] = rng.chance(0.25) ? 0.0 : soc.tests[core].power;
    }
    expect_session_peaks_match(path, full, session, power, 0.5 + trial);
  }
  // No power at all: every rise is +0, so both maxima are ambient.
  const std::vector<std::size_t> cold = {cores - 1};
  expect_session_peaks_match(path, full, cold, std::vector<double>(cores, 0.0),
                             1.0);
  // Every core: the path union holds nearly every node.
  std::sort(all.begin(), all.end());
  expect_session_peaks_match(path, full, all, soc.test_powers(), 2.0);

  EXPECT_EQ(bits(path.simulation_effort()), bits(full.simulation_effort()));
  EXPECT_EQ(path.simulation_count(), full.simulation_count());
}

INSTANTIATE_TEST_SUITE_P(SyntheticSocs, PathSolveExactness,
                         ::testing::Values(8u, 246u, 1000u));

// The self-resistance table on the RC models Algorithm 1 runs on: pᵢ·rᵢ
// within kTableRel of the path solve on {i} at every core; each steady
// one-core session_peaks within kTableRel of simulate_session on the
// rise, whose hottest block is the core; and, after
// solo_prepass, each one-core validation repeating its core's BCMT bit
// for bit, which Algorithm 1's single-core check relies on.
class SelfResistanceTable : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SelfResistanceTable, SoloRisesMatchTheSolvesAndValidationsMatchBcmt) {
  const std::size_t cores = GetParam();
  const core::SocSpec soc = random_soc(cores + 11, cores);
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  const std::vector<double>& r = model->self_resistance();
  ASSERT_EQ(r.size(), cores);
  const linalg::SparseCholeskyFactor& factor = model->steady_factor();
  linalg::PathScratch scratch(model->node_count());
  for (std::size_t i = 0; i < cores; ++i) {
    const double p = soc.tests[i].power;
    double rise = p;
    factor.solve_subset({&i, 1}, {&rise, 1}, scratch);
    EXPECT_NEAR(p * r[i], rise, kTableRel * rise)
        << "cores=" << cores << " core=" << i;
  }

  thermal::ThermalAnalyzer::Options steady;
  steady.transient = false;
  thermal::ThermalAnalyzer analyzer(model, steady);
  thermal::ThermalAnalyzer full(model, steady);
  const core::SoloPrepass prepass = core::solo_prepass(soc, analyzer);
  const double ambient = soc.package.ambient;
  for (std::size_t i = 0; i < cores; ++i) {
    SCOPED_TRACE("cores=" + std::to_string(cores) +
                 " core=" + std::to_string(i));
    core::TestSession solo;
    solo.cores.push_back(i);
    const std::vector<double> power = solo.power_map(soc);
    const thermal::SessionPeaks peaks = analyzer.session_peaks(
        solo.cores, {&soc.tests[i].power, 1}, solo.length(soc));
    EXPECT_EQ(bits(peaks.core_peak[0]), bits(prepass.bcmt[i]));
    EXPECT_EQ(bits(peaks.max_temperature), bits(prepass.bcmt[i]));
    const thermal::SessionSimulation sim =
        full.simulate_session(power, solo.length(soc));
    expect_rise_near(peaks.core_peak[0], sim.peak_temperature[i], ambient);
    EXPECT_EQ(sim.hottest_block, i);
  }
  EXPECT_EQ(bits(analyzer.simulation_effort()),
            bits(full.simulation_effort()));
  EXPECT_EQ(analyzer.simulation_count(), full.simulation_count());
}

INSTANTIATE_TEST_SUITE_P(SyntheticSocs, SelfResistanceTable,
                         ::testing::Values(8u, 246u, 1000u, 4000u));

// The symbolic/numeric split against the pre-split reference
// (tests/oracles/reference_cholesky.hpp), which permutes A through a
// builder and re-derives the pattern per factor, and assembles the
// stepper's (C/dt + G) through a builder. On the RC models Algorithm 1
// runs on and on a fine grid, in natural and minimum-degree order, the
// factor of G and the stepper at dt 0.01, at dt 1e-3 and at a remainder
// step all share one analysis and give the reference's bits: the fill,
// solve, solve_subset, inverse_diagonal and step.
class SymbolicSplit
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(SymbolicSplit, EveryFactorGivesTheReferenceBits) {
  const auto [cores, min_degree] = GetParam();
  // cores == 0 stands for a 64×64 grid model of the fig1 floorplan. It
  // has no capacitances, so its steppers take made-up positive ones.
  linalg::SparseMatrix g;
  std::vector<double> capacitance;
  if (cores == 0) {
    const core::SocSpec soc = soc::fig1_soc();
    const thermal::GridThermalModel grid(soc.flp, soc.package, {64, 64});
    g = grid.conductance();
    for (std::size_t i = 0; i < grid.node_count(); ++i) {
      capacitance.push_back(1e-4 * (1.0 + static_cast<double>(i % 13)));
    }
  } else {
    const core::SocSpec soc = random_soc(cores + 5, cores);
    const thermal::RCModel model(soc.flp, soc.package);
    g = model.conductance_sparse();
    capacitance = model.capacitance();
  }
  const std::size_t n = g.rows();
  const std::vector<std::size_t> perm =
      min_degree ? linalg::min_degree_ordering(g) : std::vector<std::size_t>{};
  const auto symbolic =
      std::make_shared<const linalg::SymbolicCholesky>(g, perm);
  Rng rng(n);
  std::vector<double> b(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.chance(0.3) ? 0.0 : rng.uniform(0.0, 5.0);
    y[i] = rng.uniform(0.0, 2.0);
  }
  const linalg::SparseCholeskyFactor factor(symbolic, g);
  EXPECT_EQ(factor.factor_nonzeros(),
            linalg::symbolic_factor_nonzeros(g, perm));
  EXPECT_EQ(linalg::first_difference(
                factor, linalg::ReferenceCholeskyFactor(g, perm), b),
            "");
  // A 53.7 ms session at dt 0.01 ends on a remainder step of the summed
  // time's leftover, as thermal::simulate_transient takes it.
  const double remainder = 0.0537 - (0.01 + 0.01 + 0.01 + 0.01 + 0.01);
  for (const double dt : {0.01, 1e-3, remainder}) {
    SCOPED_TRACE("dt=" + std::to_string(dt));
    const linalg::SparseImplicitStepper stepper(symbolic, g, capacitance, dt);
    EXPECT_EQ(&stepper.factor().symbolic(), symbolic.get());
    EXPECT_EQ(stepper.factor().factor_nonzeros(), factor.factor_nonzeros());
    EXPECT_EQ(linalg::first_difference(
                  stepper,
                  linalg::ReferenceImplicitStepper(g, capacitance, dt, perm), y,
                  b, 3),
              "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThermalModels, SymbolicSplit,
    ::testing::Combine(::testing::Values(8u, 246u, 1000u, 0u),
                       ::testing::Bool()));

/// A random SoC at ambient 0, for the homogeneity checks.
core::SocSpec cold_soc(std::uint64_t seed, std::size_t cores) {
  core::SocSpec soc = random_soc(seed, cores);
  soc.package.ambient = 0.0;
  return soc;
}

// Homogeneity of the steady oracle: at ambient 0 a steady rise is linear
// in the powers (G⁻¹p, and p·(G⁻¹)ᵢᵢ for one core) and STC is
// quadratic, so on one shared model the pre-pass of 2p gives exactly
// doubled BCMTs, and generate() with 2p, 2·TL and 4·STCL makes the same
// sessions and discards at the same effort and count, with exactly
// doubled session maxima and schedule maximum, and session peaks naming
// the same hottest cores, on a TL/STCL grid above every BCMT (so no
// solo policy fires) where TL binds. The second run reads the
// self-resistance table and the factor the first one built, so a table
// that held p·rᵢ instead of rᵢ, or a rise off by a constant, fails here.
class Homogeneity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Homogeneity, SteadyDoublingThePowersDoublesEveryPeak) {
  const std::size_t cores = GetParam();
  const core::SocSpec soc = cold_soc(cores + 43, cores);
  core::SocSpec doubled = soc;
  for (core::CoreTest& test : doubled.tests) test.power *= 2.0;
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  thermal::ThermalAnalyzer::Options steady;
  steady.transient = false;
  thermal::ThermalAnalyzer analyzer(model, steady);

  const std::vector<double> bcmt = core::solo_prepass(soc, analyzer).bcmt;
  const std::vector<double> bcmt2 = core::solo_prepass(doubled, analyzer).bcmt;
  ASSERT_EQ(bcmt2.size(), cores);
  for (std::size_t i = 0; i < cores; ++i) {
    EXPECT_EQ(bits(bcmt2[i]), bits(2.0 * bcmt[i])) << "core=" << i;
  }
  const double hottest = *std::max_element(bcmt.begin(), bcmt.end());
  thermal::ThermalAnalyzer full(model, steady);
  const auto hottest_block = [&](const core::SocSpec& on,
                                 const core::TestSession& session) {
    return full.simulate_session(session.power_map(on), session.length(on))
        .hottest_block;
  };
  std::size_t discards = 0;
  for (const auto& [tl, stcl] :
       {std::pair{1.02, 50.0}, std::pair{1.02, 1e5}, std::pair{1.1, 1e3},
        std::pair{1.1, 1e5}, std::pair{1.6, 50.0}, std::pair{1.6, 1e5}}) {
    core::ThermalSchedulerOptions base;
    base.temperature_limit = tl * hottest;
    base.stc_limit = stcl;
    base.model.stc_scale = 10.0;
    core::ThermalSchedulerOptions scaled = base;
    scaled.temperature_limit = 2.0 * base.temperature_limit;
    scaled.stc_limit = 4.0 * base.stc_limit;
    SCOPED_TRACE("tl=" + std::to_string(tl) +
                 "·hottest, stcl=" + std::to_string(stcl));
    const core::ScheduleResult a =
        core::ThermalAwareScheduler(base).generate(soc, analyzer);
    const core::ScheduleResult b =
        core::ThermalAwareScheduler(scaled).generate(doubled, analyzer);
    discards += a.discarded_sessions;
    ASSERT_EQ(b.schedule.session_count(), a.schedule.session_count());
    for (std::size_t s = 0; s < a.schedule.sessions.size(); ++s) {
      EXPECT_EQ(b.schedule.sessions[s].cores, a.schedule.sessions[s].cores);
    }
    ASSERT_EQ(b.outcomes.size(), a.outcomes.size());
    for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
      EXPECT_EQ(bits(b.outcomes[s].max_temperature),
                bits(2.0 * a.outcomes[s].max_temperature))
          << "session " << s;
      const std::size_t block = hottest_block(soc, a.schedule.sessions[s]);
      EXPECT_EQ(hottest_block(doubled, b.schedule.sessions[s]), block)
          << "session " << s;
      const std::vector<std::size_t>& cores = a.schedule.sessions[s].cores;
      EXPECT_NE(std::find(cores.begin(), cores.end(), block), cores.end())
          << "session " << s;
    }
    EXPECT_EQ(b.discarded_sessions, a.discarded_sessions);
    EXPECT_EQ(bits(b.max_temperature), bits(2.0 * a.max_temperature));
    EXPECT_EQ(bits(b.simulation_effort), bits(a.simulation_effort));
    EXPECT_EQ(b.simulation_count, a.simulation_count);
    EXPECT_TRUE(a.notes.empty());
    EXPECT_TRUE(b.notes.empty());
  }
  EXPECT_GT(discards, 0u) << "TL never bound";
}

INSTANTIATE_TEST_SUITE_P(SyntheticSocs, Homogeneity,
                         ::testing::Values(8u, 40u, 246u));

// Homogeneity of the chained path: at ambient 0 a backward-Euler step,
// a cool-down and simulate_session_from from a carried state are linear
// in the powers and the state, so the chained safety check of a schedule
// with 2p against 2·TL flags the same cores with exactly doubled session
// maxima and violation peaks, at every cooling gap, and a power-trace
// style chain of simulate_session_from calls (each step starting where
// the last ended, as ptrace replay does) doubles every peak and the
// final state. Both schedules come from generate(PreparedSoc, ...) on
// one PreparedModel, with 2p, 2·TL and 4·STCL for the second, and are
// the same sessions. TL sits just above the hottest solo peak (Dcache,
// 91.07 K over ambient), so each chained check finds the carried heat
// over TL; a transient start even 1e-9 K above ambient fails here.
class ChainedHomogeneity : public ::testing::TestWithParam<double> {};

TEST_P(ChainedHomogeneity, DoublingThePowersDoublesEveryChainedPeak) {
  core::SocSpec soc = soc::alpha_soc();
  soc.package.ambient = 0.0;
  core::SocSpec doubled = soc;
  for (core::CoreTest& test : doubled.tests) test.power *= 2.0;
  const core::PreparedModel prepared(soc);
  thermal::ThermalAnalyzer::Options transient;
  transient.dt = GetParam();
  thermal::ThermalAnalyzer analyzer(prepared.rc_model(), transient);
  const core::SoloPrepass once_prepass = core::solo_prepass(soc, analyzer);
  const core::SoloPrepass twice_prepass = core::solo_prepass(doubled, analyzer);
  const double tl = 91.2;
  for (const double stcl : {30.0, 70.0}) {
    core::ThermalSchedulerOptions base;
    base.temperature_limit = tl;
    base.stc_limit = stcl;
    base.model.stc_scale = soc::alpha_stc_scale();
    core::ThermalSchedulerOptions scaled = base;
    scaled.temperature_limit = 2.0 * tl;
    scaled.stc_limit = 4.0 * stcl;
    const core::TestSchedule once =
        core::ThermalAwareScheduler(base)
            .generate(core::PreparedSoc{soc, prepared}, analyzer, once_prepass)
            .schedule;
    const core::TestSchedule twice =
        core::ThermalAwareScheduler(scaled)
            .generate(core::PreparedSoc{doubled, prepared}, analyzer,
                      twice_prepass)
            .schedule;
    ASSERT_EQ(twice.session_count(), once.session_count());
    for (std::size_t s = 0; s < once.sessions.size(); ++s) {
      ASSERT_EQ(twice.sessions[s].cores, once.sessions[s].cores);
    }

    for (const double gap : {0.0, 0.5, 2.0}) {
      SCOPED_TRACE("stcl=" + std::to_string(stcl) +
                   " gap=" + std::to_string(gap));
      const core::SafetyChecker::Options chain{.chained = true,
                                               .cooling_gap = gap};
      const core::SafetyReport a =
          core::SafetyChecker(tl, chain).check(soc, once, analyzer);
      const core::SafetyReport b =
          core::SafetyChecker(2.0 * tl, chain).check(doubled, twice, analyzer);
      EXPECT_FALSE(a.violations.empty()) << "the chained check found no heat";
      ASSERT_EQ(b.violations.size(), a.violations.size());
      for (std::size_t v = 0; v < a.violations.size(); ++v) {
        EXPECT_EQ(b.violations[v].session_index, a.violations[v].session_index);
        EXPECT_EQ(b.violations[v].core, a.violations[v].core);
        EXPECT_EQ(bits(b.violations[v].peak_temperature),
                  bits(2.0 * a.violations[v].peak_temperature));
      }
      EXPECT_EQ(bits(b.max_temperature), bits(2.0 * a.max_temperature));
    }

    std::vector<double> state_a = thermal::ambient_state(analyzer.model());
    std::vector<double> state_b = state_a;
    for (const core::TestSession& session : once.sessions) {
      thermal::ThermalAnalyzer::Chained a = analyzer.simulate_session_from(
          session.power_map(soc), 0.25, state_a);
      thermal::ThermalAnalyzer::Chained b = analyzer.simulate_session_from(
          session.power_map(doubled), 0.25, state_b);
      for (std::size_t i = 0; i < a.session.peak_temperature.size(); ++i) {
        EXPECT_EQ(bits(b.session.peak_temperature[i]),
                  bits(2.0 * a.session.peak_temperature[i]))
            << "block " << i;
      }
      EXPECT_EQ(b.session.hottest_block, a.session.hottest_block);
      state_a = std::move(a.final_state);
      state_b = std::move(b.final_state);
    }
    for (std::size_t n = 0; n < state_a.size(); ++n) {
      EXPECT_EQ(bits(state_b[n]), bits(2.0 * state_a[n])) << "node " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSoc, ChainedHomogeneity,
                         ::testing::Values(0.01, 1e-3));

/// Tolerance of a transient session_peaks, a sum of unit-step responses
/// (docs/SOLVERS.md "Transient response table"), against the stepped
/// session, relative to the rise.
constexpr double kSuperpositionRel = 1e-12;

/// A transient-table case: a random synthetic SoC of `cores` cores
/// stepped at `dt`.
struct ResponseCase {
  std::size_t cores;
  double dt;
};

void PrintTo(const ResponseCase& c, std::ostream* os) {
  *os << c.cores << "cores_dt" << c.dt;
}

/// A random SoC whose test lengths, 5 to 60 ms, are almost never a whole
/// number of steps at dt 0.01 or 1e-3 (those under 10 ms are a lone
/// remainder step at dt 0.01), with ambient `ambient`.
core::SocSpec ragged_soc(std::uint64_t seed, std::size_t cores,
                         double ambient) {
  Rng rng(seed);
  soc::SyntheticOptions options;
  options.core_count = cores;
  options.power_density_min = 1e5;
  options.power_density_max = 8e5;
  options.test_length_min = 0.005;
  options.test_length_max = 0.06;
  core::SocSpec soc = soc::make_synthetic_soc(rng, options);
  soc.package.ambient = ambient;
  return soc;
}

class TransientResponseTable : public ::testing::TestWithParam<ResponseCase> {
 protected:
  thermal::ThermalAnalyzer::Options options() const {
    thermal::ThermalAnalyzer::Options transient;
    transient.dt = GetParam().dt;
    return transient;
  }
};

// The transient oracle answers session_peaks by superposition from the
// model's unit-step responses. On random sessions (one core or several,
// some cores at zero power) at lengths off the step grid and on it, its
// peaks and maximum are within kSuperpositionRel of simulate_session on
// the rise, whose hottest block is a session core, at the same effort
// and count; an all-zero session reads the full simulation's maximum,
// ambient, bit for bit. After
// solo_prepass, each one-core validation repeats its core's BCMT bit
// for bit, which Algorithm 1's single-core check relies on.
TEST_P(TransientResponseTable, SessionPeaksMatchTheSteppedSessions) {
  const std::size_t cores = GetParam().cores;
  const core::SocSpec soc = ragged_soc(cores + 17, cores, 45.0);
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  thermal::ThermalAnalyzer table(model, options());
  thermal::ThermalAnalyzer full(model, options());
  const double ambient = soc.package.ambient;
  const double dt = GetParam().dt;
  Rng rng(cores);
  std::vector<std::size_t> all(cores);
  for (std::size_t i = 0; i < cores; ++i) all[i] = i;
  for (int trial = 0; trial < 24; ++trial) {
    rng.shuffle(all);
    const auto k = static_cast<std::size_t>(
        trial % 3 == 0 ? 1 : rng.uniform_int(2, std::min<long long>(8, cores)));
    const std::vector<std::size_t> session(all.begin(),
                                           all.begin() + static_cast<long>(k));
    std::vector<double> power(cores, 0.0);
    std::vector<double> core_power;
    for (const std::size_t core : session) {
      power[core] = k > 1 && rng.chance(0.25) ? 0.0 : soc.tests[core].power;
      core_power.push_back(power[core]);
    }
    // Off the step grid, then a whole number of steps.
    const double duration = trial % 2 ? rng.uniform(0.3, 6.3) * dt
                                      : static_cast<double>(trial + 1) * dt;
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const thermal::SessionPeaks peaks =
        table.session_peaks(session, core_power, duration);
    const thermal::SessionSimulation sim =
        full.simulate_session(power, duration);
    for (std::size_t t = 0; t < k; ++t) {
      expect_rise_near(peaks.core_peak[t], sim.peak_temperature[session[t]],
                       ambient, kSuperpositionRel);
    }
    expect_rise_near(peaks.max_temperature, sim.max_temperature, ambient,
                     kSuperpositionRel);
    if (sim.max_temperature > ambient) {
      EXPECT_NE(std::find(session.begin(), session.end(), sim.hottest_block),
                session.end());
    }
  }
  // No power at all: every peak is ambient.
  const std::vector<std::size_t> cold = {cores - 1, cores / 2};
  const thermal::SessionPeaks none =
      table.session_peaks(cold, std::vector<double>{0.0, 0.0}, 1.5 * dt);
  const thermal::SessionSimulation none_sim =
      full.simulate_session(std::vector<double>(cores, 0.0), 1.5 * dt);
  EXPECT_EQ(bits(none.max_temperature), bits(none_sim.max_temperature));
  EXPECT_EQ(none.core_peak, (std::vector<double>{ambient, ambient}));
  EXPECT_EQ(bits(table.simulation_effort()), bits(full.simulation_effort()));
  EXPECT_EQ(table.simulation_count(), full.simulation_count());

  thermal::ThermalAnalyzer validator(model, options());
  const core::SoloPrepass prepass = core::solo_prepass(soc, validator);
  for (std::size_t i = 0; i < cores; ++i) {
    const thermal::SessionPeaks solo = validator.session_peaks(
        {&i, 1}, {&soc.tests[i].power, 1}, soc.tests[i].length);
    EXPECT_EQ(bits(solo.core_peak[0]), bits(prepass.bcmt[i])) << "core=" << i;
    EXPECT_EQ(bits(solo.max_temperature), bits(prepass.bcmt[i]));
  }
}

// The physics the superposition read rests on. (C/dt + G) is a
// non-singular M-matrix, so (C/dt + G)⁻¹ ≥ 0 and a unit step from
// ambient never cools a node: chaining one-step simulate_transient calls
// (whole steps, then the remainder step) at ambient 0, every node is
// non-decreasing at every step, bit for bit, and the chain ends on
// unit_step_response's bits, which the table stores.
TEST_P(TransientResponseTable, UnitStepsHeatMonotonically) {
  const std::size_t cores = GetParam().cores;
  const core::SocSpec soc = ragged_soc(cores + 29, cores, 0.0);
  const thermal::RCModel model(soc.flp, soc.package);
  thermal::TransientOptions step;
  step.dt = GetParam().dt;
  const std::size_t block = cores / 3;
  const double duration = 7.4 * step.dt;  // 7 whole steps and a remainder
  std::vector<double> unit(cores, 0.0);
  unit[block] = 1.0;
  std::vector<double> state = thermal::ambient_state(model);
  std::size_t decreases = 0;
  double t = 0.0;
  const auto advance = [&](double by) {
    const std::vector<double> next =
        thermal::simulate_transient(model, unit, by, state, step)
            .final_temperature;
    for (std::size_t n = 0; n < next.size(); ++n) {
      if (next[n] < state[n]) ++decreases;
    }
    state = next;
  };
  for (int k = 0; k < 7; ++k) {
    advance(step.dt);
    t += step.dt;
  }
  advance(duration - t);
  EXPECT_EQ(decreases, 0u);
  const std::vector<double> response =
      thermal::unit_step_response(model, block, duration, step);
  ASSERT_EQ(response.size(), cores);
  for (std::size_t b = 0; b < cores; ++b) {
    EXPECT_EQ(bits(response[b]), bits(state[b])) << "block=" << b;
    EXPECT_GT(response[b], 0.0) << "block=" << b;
  }
}

// Homogeneity: at ambient 0 every step of the transient oracle is
// linear in the powers and STC is quadratic, so on one shared model,
// doubling every power doubles every session_peaks rise exactly and
// every BCMT of the pre-pass, and generate() with 2p, 2·TL and 4·STCL
// makes the same sessions and discards with exactly doubled
// temperatures, on a TL/STCL grid above every BCMT where TL binds (so
// no solo policy fires). The second run reads the responses the first
// one stored, so a table that stored p·uⱼ instead of uⱼ fails here.
TEST_P(TransientResponseTable, DoublingThePowersDoublesEveryRise) {
  const std::size_t cores = GetParam().cores;
  const core::SocSpec soc = ragged_soc(cores + 41, cores, 0.0);
  core::SocSpec doubled = soc;
  for (core::CoreTest& test : doubled.tests) test.power *= 2.0;
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  thermal::ThermalAnalyzer analyzer(model, options());
  Rng rng(cores + 3);
  std::vector<std::size_t> all(cores);
  for (std::size_t i = 0; i < cores; ++i) all[i] = i;
  for (int trial = 0; trial < 12; ++trial) {
    rng.shuffle(all);
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(1, std::min<long long>(6, cores)));
    const std::vector<std::size_t> session(all.begin(),
                                           all.begin() + static_cast<long>(k));
    std::vector<double> power;
    std::vector<double> twice;
    for (const std::size_t core : session) {
      power.push_back(soc.tests[core].power);
      twice.push_back(doubled.tests[core].power);
    }
    const double duration = rng.uniform(0.5, 5.5) * GetParam().dt;
    const thermal::SessionPeaks once =
        analyzer.session_peaks(session, power, duration);
    const thermal::SessionPeaks again =
        analyzer.session_peaks(session, twice, duration);
    for (std::size_t t = 0; t < k; ++t) {
      EXPECT_EQ(bits(again.core_peak[t]), bits(2.0 * once.core_peak[t]))
          << "trial=" << trial << " core=" << session[t];
    }
    EXPECT_EQ(bits(again.max_temperature), bits(2.0 * once.max_temperature))
        << "trial=" << trial;
  }

  const std::vector<double> bcmt = core::solo_prepass(soc, analyzer).bcmt;
  const std::vector<double> bcmt2 = core::solo_prepass(doubled, analyzer).bcmt;
  for (std::size_t i = 0; i < cores; ++i) {
    EXPECT_EQ(bits(bcmt2[i]), bits(2.0 * bcmt[i])) << "core=" << i;
  }
  const double hottest = *std::max_element(bcmt.begin(), bcmt.end());
  std::size_t discards = 0;
  for (const auto& [tl, stcl] :
       {std::pair{1.02, 50.0}, std::pair{1.02, 1e5}, std::pair{1.1, 1e3},
        std::pair{1.1, 1e5}, std::pair{1.3, 50.0}, std::pair{1.3, 1e5}}) {
    core::ThermalSchedulerOptions base;
    base.temperature_limit = tl * hottest;
    base.stc_limit = stcl;
    base.model.stc_scale = 10.0;
    core::ThermalSchedulerOptions scaled = base;
    scaled.temperature_limit = 2.0 * base.temperature_limit;
    scaled.stc_limit = 4.0 * base.stc_limit;
    const core::ScheduleResult a =
        core::ThermalAwareScheduler(base).generate(soc, analyzer);
    const core::ScheduleResult b =
        core::ThermalAwareScheduler(scaled).generate(doubled, analyzer);
    SCOPED_TRACE("tl=" + std::to_string(tl) + "·hottest, stcl=" +
                 std::to_string(stcl));
    discards += a.discarded_sessions;
    ASSERT_EQ(b.schedule.session_count(), a.schedule.session_count());
    for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
      EXPECT_EQ(b.schedule.sessions[s].cores, a.schedule.sessions[s].cores);
      EXPECT_EQ(bits(b.outcomes[s].max_temperature),
                bits(2.0 * a.outcomes[s].max_temperature));
    }
    EXPECT_EQ(b.discarded_sessions, a.discarded_sessions);
    EXPECT_EQ(bits(b.max_temperature), bits(2.0 * a.max_temperature));
    EXPECT_EQ(bits(b.simulation_effort), bits(a.simulation_effort));
    EXPECT_EQ(b.simulation_count, a.simulation_count);
  }
  EXPECT_GT(discards, 0u) << "TL never bound";
}

INSTANTIATE_TEST_SUITE_P(
    SyntheticSocs, TransientResponseTable,
    ::testing::Values(ResponseCase{8, 0.01}, ResponseCase{8, 1e-3},
                      ResponseCase{27, 0.01}, ResponseCase{27, 1e-3},
                      ResponseCase{64, 0.01}, ResponseCase{64, 1e-3}));

// Ties: a mirror-symmetric m×m grid of equal blocks, validated with
// mirror-image cores at equal power, where blocks can reach the same
// peak bit for bit. Whatever order the cores come in, session_peaks'
// maximum over the cores is the full solve's block maximum bit for bit,
// and simulate_session's first maximum, its hottest block, is a session
// core.
TEST(SessionPeaksTies, MirrorSymmetricSessionsNameTheSameHottestBlock) {
  constexpr std::size_t m = 8;
  std::vector<floorplan::Block> blocks;
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      blocks.push_back({std::to_string(r * m + c), 1e-3, 1e-3,
                        static_cast<double>(c) * 1e-3,
                        static_cast<double>(r) * 1e-3});
    }
  }
  const floorplan::Floorplan fp("mirror", std::move(blocks));
  const auto model =
      std::make_shared<const thermal::RCModel>(fp, thermal::PackageParams{});
  thermal::ThermalAnalyzer::Options steady;
  steady.transient = false;
  thermal::ThermalAnalyzer path(model, steady);
  thermal::ThermalAnalyzer full(model, steady);
  const auto at = [](std::size_t r, std::size_t c) { return r * m + c; };
  std::size_t ties = 0;
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m / 2; ++c) {
      // Left-right, top-bottom and four-fold mirror images, listed
      // highest index first.
      for (const std::vector<std::size_t>& session :
           {std::vector<std::size_t>{at(r, m - 1 - c), at(r, c)},
            std::vector<std::size_t>{at(m - 1 - r, c), at(r, c)},
            std::vector<std::size_t>{at(m - 1 - r, m - 1 - c),
                                     at(m - 1 - r, c), at(r, m - 1 - c),
                                     at(r, c)}}) {
        std::vector<double> power(m * m, 0.0);
        for (const std::size_t core : session) power[core] = 2.0;
        const thermal::SessionSimulation sim =
            thermal::ThermalAnalyzer(model, steady).simulate_session(power, 1.0);
        for (const std::size_t core : session) {
          if (core != sim.hottest_block &&
              sim.peak_temperature[core] == sim.max_temperature) {
            ++ties;
          }
        }
        expect_session_peaks_match(path, full, session, power, 1.0);
      }
    }
  }
  EXPECT_GT(ties, 0u) << "no session produced a tie";
}

// ---------------------------------------------------------------------------
// Live candidates: generate() keeps a compacted list of the candidates
// that can still join a session, and must give the full-scan reference
// loop's ScheduleResult bit for bit, while evaluating exactly the live
// candidates of each construction round.

/// A scheduler configuration, with TL and STCL picked per SoC from its
/// solo peaks and solo STC terms.
struct LiveConfig {
  core::SoloViolationPolicy policy;
  core::CoreOrder order;
  int tl;    ///< 0: loose (never binds), 1: binding, 2: below the hottest BCMT
  int stcl;  ///< 0: loose, 1: tight (most cores hopeless), 2: one solo term exactly
  double weight_factor;
};

std::string describe(const LiveConfig& c) {
  return "policy " + std::to_string(static_cast<int>(c.policy)) + ", order " +
         std::to_string(static_cast<int>(c.order)) + ", tl " +
         std::to_string(c.tl) + ", stcl " + std::to_string(c.stcl) +
         ", weight factor " + std::to_string(c.weight_factor);
}

/// The first difference between two results, or "" when they are equal
/// bit for bit.
std::string first_difference(const core::ScheduleResult& a,
                             const core::ScheduleResult& b) {
  if (a.schedule.sessions.size() != b.schedule.sessions.size()) {
    return "session count " + std::to_string(a.schedule.sessions.size()) +
           " vs " + std::to_string(b.schedule.sessions.size());
  }
  for (std::size_t s = 0; s < a.schedule.sessions.size(); ++s) {
    if (a.schedule.sessions[s].cores != b.schedule.sessions[s].cores) {
      return "session " + std::to_string(s);
    }
  }
  if (a.outcomes.size() != b.outcomes.size()) return "outcome count";
  for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
    const core::SessionOutcome& x = a.outcomes[s];
    const core::SessionOutcome& y = b.outcomes[s];
    if (x.session.cores != y.session.cores || x.length != y.length ||
        x.max_temperature != y.max_temperature) {
      return "outcome " + std::to_string(s);
    }
  }
  if (a.discarded_sessions != b.discarded_sessions) return "discards";
  if (a.simulation_effort != b.simulation_effort) return "effort";
  if (a.simulation_count != b.simulation_count) return "count";
  if (a.schedule_length != b.schedule_length) return "schedule length";
  if (a.max_temperature != b.max_temperature) return "max temperature";
  if (a.notes != b.notes) return "notes";
  return "";
}

class LiveCandidateList
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(LiveCandidateList, GenerateMatchesTheFullScanReference) {
  const auto [seed, cores] = GetParam();
  Rng rng(seed);
  soc::SyntheticOptions synthetic;
  synthetic.core_count = cores;
  core::SocSpec soc = soc::make_synthetic_soc(rng, synthetic);
  for (core::CoreTest& test : soc.tests) test.power *= 3.0;
  thermal::ThermalAnalyzer::Options steady;
  steady.transient = false;
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package, steady);

  // TL and STCL grids from the SoC's solo peaks and solo STC terms.
  constexpr double kStcScale = 10.0;
  const std::vector<double> bcmt = core::solo_prepass(soc, analyzer).bcmt;
  std::vector<double> sorted_bcmt = bcmt;
  std::sort(sorted_bcmt.begin(), sorted_bcmt.end());
  const double tls[] = {sorted_bcmt.back() + 100.0, sorted_bcmt.back() + 1.0,
                        sorted_bcmt[cores / 2]};
  const core::SessionThermalModel session_model(soc.flp, soc.package, {});
  const std::vector<bool> none(cores, false);
  std::vector<double> solo_terms;
  for (std::size_t i = 0; i < cores; ++i) {
    const double p = soc.tests[i].power;
    solo_terms.push_back(session_model.thermal_characteristic(none, i, p) * p *
                         1.0 * kStcScale);
  }
  std::sort(solo_terms.begin(), solo_terms.end());
  const double stcls[] = {10.0 * solo_terms.back(), solo_terms[cores / 4],
                          solo_terms[cores / 2]};

  // Small SoCs run the whole grid; larger ones twelve configurations
  // that still pair every policy with every order.
  using Policy = core::SoloViolationPolicy;
  using Order = core::CoreOrder;
  std::vector<LiveConfig> configs;
  if (cores <= 30) {
    for (const Policy policy : {Policy::kThrow, Policy::kRaiseLimit}) {
      for (const Order order :
           {Order::kInputOrder, Order::kDescendingPower,
            Order::kDescendingSoloTc, Order::kAscendingSoloTc}) {
        for (int tl = 0; tl < 3; ++tl) {
          for (int stcl = 0; stcl < 3; ++stcl) {
            for (const double w : {1.0, 1.1, 2.0}) {
              configs.push_back({policy, order, tl, stcl, w});
            }
          }
        }
      }
    }
  } else {
    configs = {
        {Policy::kRaiseLimit, Order::kDescendingSoloTc, 2, 0, 1.1},
        {Policy::kRaiseLimit, Order::kAscendingSoloTc, 1, 1, 2.0},
        {Policy::kRaiseLimit, Order::kInputOrder, 2, 2, 1.1},
        {Policy::kRaiseLimit, Order::kDescendingPower, 2, 0, 2.0},
        {Policy::kThrow, Order::kDescendingSoloTc, 1, 2, 2.0},
        {Policy::kThrow, Order::kInputOrder, 0, 1, 1.0},
        {Policy::kThrow, Order::kAscendingSoloTc, 2, 0, 1.1},
        {Policy::kRaiseLimit, Order::kDescendingPower, 1, 2, 1.1},
        {Policy::kThrow, Order::kAscendingSoloTc, 0, 0, 1.0},
        {Policy::kThrow, Order::kDescendingPower, 0, 2, 1.0},
        {Policy::kRaiseLimit, Order::kInputOrder, 1, 0, 2.0},
        {Policy::kThrow, Order::kDescendingSoloTc, 1, 1, 1.1},
    };
  }

  obs::Counter& evaluations =
      obs::MetricsRegistry::instance().counter("core.stc_evaluations");
  std::size_t with_discards = 0;
  std::size_t with_hopeless = 0;
  for (const LiveConfig& config : configs) {
    core::ThermalSchedulerOptions options;
    options.temperature_limit = tls[config.tl];
    options.stc_limit = stcls[config.stcl];
    options.weight_factor = config.weight_factor;
    options.solo_policy = config.policy;
    options.core_order = config.order;
    options.model.stc_scale = kStcScale;
    // A weight factor of 1 under a binding TL repeats a discarded session
    // until the cap: both loops must then throw alike.
    options.max_attempts = 4 * cores + 100;
    const std::string what =
        std::to_string(cores) + " cores, " + describe(config);

    std::string reference_error;
    core::ReferenceSchedule reference;
    try {
      reference = core::reference_thermal_schedule(soc, analyzer, options);
    } catch (const InvalidArgument&) {
      reference_error = "InvalidArgument";
    } catch (const LogicError&) {
      reference_error = "LogicError";
    }
    const core::ThermalAwareScheduler scheduler(options);
    const std::uint64_t before = evaluations.value();
    std::string error;
    core::ScheduleResult result;
    try {
      result = scheduler.generate(soc, analyzer);
    } catch (const InvalidArgument&) {
      error = "InvalidArgument";
    } catch (const LogicError&) {
      error = "LogicError";
    }
    ASSERT_EQ(error, reference_error) << what;
    if (!error.empty()) continue;
    EXPECT_EQ(first_difference(result, reference.result), "") << what;
    EXPECT_EQ(scheduler.effective_temperature_limit(),
              reference.effective_temperature_limit)
        << what;
    EXPECT_EQ(evaluations.value() - before, reference.live_evaluations)
        << what;
    with_discards += result.discarded_sessions > 0;
    with_hopeless +=
        reference.live_evaluations < reference.full_scan_evaluations;
  }
  EXPECT_GT(with_discards, 0u) << "no configuration discarded a session";
  EXPECT_GT(with_hopeless, 0u) << "no configuration had a hopeless core";
}

INSTANTIATE_TEST_SUITE_P(
    RandomSocs, LiveCandidateList,
    ::testing::Values(std::make_tuple(std::uint64_t{1}, std::size_t{8}),
                      std::make_tuple(std::uint64_t{2}, std::size_t{24}),
                      std::make_tuple(std::uint64_t{3}, std::size_t{120}),
                      std::make_tuple(std::uint64_t{4}, std::size_t{400}),
                      std::make_tuple(std::uint64_t{5}, std::size_t{1000})));

}  // namespace
}  // namespace thermo
