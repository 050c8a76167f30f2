#include "thermal/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::quad_floorplan;
using Cores = std::vector<std::size_t>;
using Powers = std::vector<double>;

/// What `run` throws as InvalidArgument, or "no error".
template <class Run>
std::string error(Run&& run) {
  try {
    run();
  } catch (const InvalidArgument& e) {
    return std::string(e.what());
  }
  return std::string("no error");
}

/// A transient session_peaks sums unit-step responses (docs/SOLVERS.md
/// "Transient response table"), so it holds `peak` within 1e-12 relative
/// of the stepped session's `want` on the rise over `ambient`; a steady
/// one must equal `want` bit for bit.
void expect_peak(bool transient, double peak, double want, double ambient) {
  if (transient) {
    EXPECT_NEAR(peak - ambient, want - ambient, 1e-12 * (want - ambient));
  } else {
    EXPECT_EQ(peak, want);
  }
}

class AnalyzerTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = quad_floorplan();
  PackageParams pkg_;
  ThermalAnalyzer analyzer_{fp_, pkg_};
};

TEST_F(AnalyzerTest, SimulateSessionReportsHottestBlock) {
  const SessionSimulation sim =
      analyzer_.simulate_session({10.0, 0.0, 0.0, 0.0}, 1.0);
  ASSERT_EQ(sim.peak_temperature.size(), 4u);
  EXPECT_EQ(sim.hottest_block, 0u);
  EXPECT_DOUBLE_EQ(sim.max_temperature, sim.peak_temperature[0]);
  EXPECT_GT(sim.max_temperature, pkg_.ambient);
}

TEST_F(AnalyzerTest, EffortAccumulatesSessionTime) {
  analyzer_.simulate_session({1.0, 0.0, 0.0, 0.0}, 1.0);
  analyzer_.simulate_session({1.0, 0.0, 0.0, 0.0}, 2.5);
  EXPECT_DOUBLE_EQ(analyzer_.simulation_effort(), 3.5);
  EXPECT_EQ(analyzer_.simulation_count(), 2u);
}

TEST_F(AnalyzerTest, ResetEffortClearsCounters) {
  analyzer_.simulate_session({1.0, 0.0, 0.0, 0.0}, 1.0);
  analyzer_.reset_effort();
  EXPECT_DOUBLE_EQ(analyzer_.simulation_effort(), 0.0);
  EXPECT_EQ(analyzer_.simulation_count(), 0u);
}

TEST_F(AnalyzerTest, SteadyTemperaturesExceedTransientPeaks) {
  const SessionSimulation transient =
      analyzer_.simulate_session({5.0, 5.0, 0.0, 0.0}, 1.0);
  const std::vector<double> steady =
      solve_steady_state(analyzer_.model(), {5.0, 5.0, 0.0, 0.0}).temperature;
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_GE(steady[b] + 1e-9, transient.peak_temperature[b]);
  }
}

TEST_F(AnalyzerTest, SteadyOracleModeChargesEffortButSkipsTransient) {
  ThermalAnalyzer::Options options;
  options.transient = false;
  ThermalAnalyzer steady_analyzer(fp_, pkg_, options);
  const SessionSimulation sim =
      steady_analyzer.simulate_session({5.0, 0.0, 0.0, 0.0}, 1.0);
  EXPECT_DOUBLE_EQ(steady_analyzer.simulation_effort(), 1.0);
  // Steady oracle is more pessimistic than the transient one.
  const SessionSimulation tr =
      analyzer_.simulate_session({5.0, 0.0, 0.0, 0.0}, 1.0);
  EXPECT_GE(sim.max_temperature + 1e-9, tr.max_temperature);
}

TEST_F(AnalyzerTest, MoreConcurrencyIsHotter) {
  const SessionSimulation solo =
      analyzer_.simulate_session({8.0, 0.0, 0.0, 0.0}, 1.0);
  const SessionSimulation duo =
      analyzer_.simulate_session({8.0, 8.0, 0.0, 0.0}, 1.0);
  EXPECT_GT(duo.max_temperature, solo.max_temperature);
}

TEST_F(AnalyzerTest, ValidatesInputs) {
  EXPECT_THROW(analyzer_.simulate_session({1.0, 0.0, 0.0, 0.0}, 0.0),
               InvalidArgument);
  EXPECT_THROW(analyzer_.simulate_session({1.0}, 1.0), InvalidArgument);
  ThermalAnalyzer::Options bad;
  bad.dt = 0.0;
  EXPECT_THROW(ThermalAnalyzer(fp_, pkg_, bad), InvalidArgument);
  EXPECT_THROW(ThermalAnalyzer(std::shared_ptr<const RCModel>{}),
               InvalidArgument);
}

// A one-core session_peaks is the solo pre-pass's oracle: under either
// oracle it returns simulate_session's peak at the block (the transient
// one within expect_peak's tolerance) and charges the same effort and
// count. A core with no power reads exactly ambient.
// (Bit-equality at scale: property_test.cpp.)
TEST_F(AnalyzerTest, SoloPeakMatchesASoloSessionUnderBothOracles) {
  for (const bool transient : {true, false}) {
    ThermalAnalyzer::Options options;
    options.transient = transient;
    ThermalAnalyzer path(fp_, pkg_, options);
    ThermalAnalyzer full(fp_, pkg_, options);
    for (std::size_t b = 0; b < 4; ++b) {
      std::vector<double> power(4, 0.0);
      power[b] = 3.0 + static_cast<double>(b);
      SCOPED_TRACE("transient=" + std::to_string(transient) +
                   " block=" + std::to_string(b));
      expect_peak(transient,
                  path.session_peaks({&b, 1}, {&power[b], 1},
                                     0.5 + static_cast<double>(b))
                      .core_peak[0],
                  full.simulate_session(power, 0.5 + static_cast<double>(b))
                      .peak_temperature[b],
                  pkg_.ambient);
    }
    EXPECT_EQ(path.simulation_effort(), full.simulation_effort());
    EXPECT_EQ(path.simulation_count(), 4u);
    EXPECT_EQ(path.session_peaks(Cores{2}, Powers{0.0}, 1.0).core_peak[0],
              pkg_.ambient);
  }
}

TEST_F(AnalyzerTest, SoloPeakChecksInputsLikeASession) {
  ThermalAnalyzer::Options options;
  options.transient = false;
  ThermalAnalyzer steady(fp_, pkg_, options);
  for (const auto& [power, duration] :
       {std::pair{1.0, 0.0}, std::pair{-1.0, 1.0},
        std::pair{std::nan(""), 1.0}, std::pair{-1.0, -1.0}}) {
    const std::string solo =
        error([&] { steady.session_peaks(Cores{0}, Powers{power}, duration); });
    EXPECT_NE(solo, "no error");
    EXPECT_EQ(solo, error([&] {
                steady.simulate_session({power, 0.0, 0.0, 0.0}, duration);
              }));
  }
  EXPECT_THROW(steady.session_peaks(Cores{4}, Powers{1.0}, 1.0),
               InvalidArgument);
  EXPECT_EQ(steady.simulation_count(), 0u);
}

// session_peaks is Algorithm 1's validation oracle: under either oracle
// it returns simulate_session's peaks at the session cores and its
// maximum (the transient ones within expect_peak's tolerance), whose
// block is a session core when a core heats, and charges the same effort
// and count. The all-zero session reads ambient under both oracles.
// (Bit-equality at scale and under ties: property_test.cpp.)
TEST_F(AnalyzerTest, SessionPeaksMatchASessionUnderBothOracles) {
  const std::vector<std::pair<Cores, Powers>> sessions = {
      {{1, 0}, {3.0, 4.0, 0.0, 0.0}},
      {{3}, {0.0, 0.0, 0.0, 5.0}},
      {{2, 0}, {0.0, 0.0, 2.0, 0.0}},
      {{2, 1}, {0.0, 0.0, 0.0, 0.0}},
      {{3, 2, 1, 0}, {1.0, 2.0, 3.0, 4.0}}};
  for (const bool transient : {true, false}) {
    ThermalAnalyzer::Options options;
    options.transient = transient;
    ThermalAnalyzer path(fp_, pkg_, options);
    ThermalAnalyzer full(fp_, pkg_, options);
    for (const auto& [cores, power] : sessions) {
      Powers core_power;
      for (const std::size_t core : cores) core_power.push_back(power[core]);
      const SessionPeaks peaks = path.session_peaks(cores, core_power, 1.5);
      const SessionSimulation sim = full.simulate_session(power, 1.5);
      ASSERT_EQ(peaks.core_peak.size(), cores.size());
      for (std::size_t t = 0; t < cores.size(); ++t) {
        SCOPED_TRACE("transient=" + std::to_string(transient) +
                     " core=" + std::to_string(cores[t]));
        expect_peak(transient, peaks.core_peak[t],
                    sim.peak_temperature[cores[t]], pkg_.ambient);
      }
      expect_peak(transient, peaks.max_temperature, sim.max_temperature,
                  pkg_.ambient);
      if (sim.max_temperature > pkg_.ambient) {
        EXPECT_NE(std::find(cores.begin(), cores.end(), sim.hottest_block),
                  cores.end());
      } else {
        EXPECT_EQ(peaks.max_temperature, pkg_.ambient);
      }
    }
    EXPECT_EQ(path.simulation_effort(), full.simulation_effort());
    EXPECT_EQ(path.simulation_count(), sessions.size());
  }
}

TEST_F(AnalyzerTest, SessionPeaksChecksInputsLikeASession) {
  ThermalAnalyzer::Options options;
  options.transient = false;
  ThermalAnalyzer steady(fp_, pkg_, options);
  ThermalAnalyzer transient(fp_, pkg_);
  for (ThermalAnalyzer* oracle : {&steady, &transient}) {
    SCOPED_TRACE(oracle == &steady ? "steady" : "transient");
    for (const auto& [power, duration] :
         {std::pair{1.0, 0.0}, std::pair{-1.0, 1.0},
          std::pair{std::nan(""), 1.0}, std::pair{-1.0, -1.0}}) {
      const std::string peaks = error(
          [&] { oracle->session_peaks(Cores{0}, Powers{power}, duration); });
      EXPECT_NE(peaks, "no error");
      EXPECT_EQ(peaks, error([&] {
                  oracle->simulate_session({power, 0.0, 0.0, 0.0}, duration);
                }));
    }
    EXPECT_EQ(error([&] { oracle->session_peaks(Cores{}, Powers{}, 1.0); }),
              "precondition failed [!cores.empty()]: "
              "session needs at least one core");
    EXPECT_EQ(error([&] { oracle->session_peaks(Cores{4}, Powers{1.0}, 1.0); }),
              "precondition failed [core < model_->block_count()]: "
              "block index out of range");
    const std::string repeated =
        "precondition failed [distinct]: session cores must be distinct";
    EXPECT_EQ(error([&] {
                oracle->session_peaks(Cores{0, 0}, Powers{1.0, 1.0}, 1.0);
              }),
              repeated);
    EXPECT_EQ(error([&] {
                oracle->session_peaks(Cores{1, 2, 1}, Powers{1.0, 0.0, 2.0},
                                      1.0);
              }),
              repeated);
    const std::string mismatched =
        "precondition failed [core_power.size() == cores.size()]: "
        "session needs one power per core";
    EXPECT_EQ(
        error([&] { oracle->session_peaks(Cores{0, 1}, Powers{1.0}, 1.0); }),
        mismatched);
    EXPECT_EQ(
        error([&] { oracle->session_peaks(Cores{0}, Powers{1.0, 1.0}, 1.0); }),
        mismatched);
    EXPECT_EQ(oracle->simulation_count(), 0u);
    // The failed checks leave the workspace clean: a valid session after
    // them still matches the full solve.
    const std::vector<double> power = {1.0, 2.0, 0.0, 0.0};
    const SessionPeaks peaks =
        oracle->session_peaks(Cores{1, 0}, Powers{2.0, 1.0}, 1.0);
    const SessionSimulation sim = oracle->simulate_session(power, 1.0);
    EXPECT_EQ(peaks.core_peak,
              (std::vector<double>{sim.peak_temperature[1],
                                   sim.peak_temperature[0]}));
    EXPECT_EQ(peaks.max_temperature, sim.max_temperature);
    EXPECT_EQ(oracle->simulation_count(), 2u);
  }
}

}  // namespace
}  // namespace thermo::thermal
