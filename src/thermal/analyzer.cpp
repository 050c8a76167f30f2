#include "thermal/analyzer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

ThermalAnalyzer::ThermalAnalyzer(const floorplan::Floorplan& fp,
                                 const PackageParams& package, Options options)
    : ThermalAnalyzer(std::make_shared<const RCModel>(fp, package), options) {}

ThermalAnalyzer::ThermalAnalyzer(std::shared_ptr<const RCModel> model,
                                 Options options)
    : model_(std::move(model)), options_(options) {
  THERMO_REQUIRE(model_ != nullptr, "analyzer requires a model");
  THERMO_REQUIRE(options_.dt > 0.0, "analyzer dt must be positive");
}

ThermalAnalyzer::~ThermalAnalyzer() { flush_counters(); }

void ThermalAnalyzer::flush_counters() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  static obs::Counter& solo_lookups = registry.counter("thermal.solo_lookups");
  static obs::Counter& solves = registry.counter("thermal.solves");
  static obs::Counter& response_lookups =
      registry.counter("thermal.response_lookups");
  if (pending_solo_lookups_ > 0) solo_lookups.add(pending_solo_lookups_);
  if (pending_solves_ > 0) solves.add(pending_solves_);
  if (pending_response_lookups_ > 0) {
    response_lookups.add(pending_response_lookups_);
  }
  pending_solo_lookups_ = 0;
  pending_solves_ = 0;
  pending_response_lookups_ = 0;
}

SessionSimulation ThermalAnalyzer::simulate_session(
    const std::vector<double>& block_power, double duration) {
  if (options_.transient) {
    return simulate_session_from(block_power, duration, ambient_state(*model_))
        .session;
  }
  THERMO_REQUIRE(duration > 0.0, "session duration must be positive");
  return finish_session(solve_steady_state(*model_, block_power).temperature,
                        duration);
}

SessionSimulation ThermalAnalyzer::finish_session(
    std::vector<double> node_peaks, double duration) {
  node_peaks.resize(model_->block_count());
  SessionSimulation out;
  out.peak_temperature = std::move(node_peaks);
  const auto hottest =
      std::max_element(out.peak_temperature.begin(), out.peak_temperature.end());
  out.max_temperature = *hottest;
  out.hottest_block =
      static_cast<std::size_t>(hottest - out.peak_temperature.begin());
  simulation_effort_ += duration;
  ++simulation_count_;
  return out;
}

SessionPeaks ThermalAnalyzer::session_peaks(
    std::span<const std::size_t> cores, std::span<const double> core_power,
    double duration) {
  THERMO_REQUIRE(!cores.empty(), "session needs at least one core");
  for (const std::size_t core : cores) {
    THERMO_REQUIRE(core < model_->block_count(), "block index out of range");
  }
  // simulate_session's and expand_power's checks, in their order and
  // with their text (the checked expression is part of the error bytes),
  // then that the cores are distinct (on_path is free here and is zeroed
  // again before the solve) and that each has a power.
  THERMO_REQUIRE(duration > 0.0, "session duration must be positive");
  for (const double p : core_power) {
    THERMO_REQUIRE(std::isfinite(p) && p >= 0.0,
                   "block power must be finite and non-negative");
  }
  fit_scratch();
  std::vector<unsigned char>& in_session = scratch_.on_path;
  bool distinct = true;
  for (const std::size_t core : cores) {
    distinct = distinct && in_session[core] == 0;
    in_session[core] = 1;
  }
  for (const std::size_t core : cores) in_session[core] = 0;
  THERMO_REQUIRE(distinct, "session cores must be distinct");
  THERMO_REQUIRE(core_power.size() == cores.size(),
                 "session needs one power per core");
  SessionPeaks out;
  out.core_peak.assign(core_power.begin(), core_power.end());
  // Steady: one core is a self-resistance table read, so a one-core
  // validation repeats its core's pre-pass peak bit for bit; more cores
  // are path-solved; ambient is added to the rises. Transient: ambient
  // plus pⱼ·uⱼ(d) for each powered core j in session order (a zero-power
  // core would add +0, so it is skipped), so one core reads
  // ambient + p·uᵢ(d)[i] as its pre-pass did.
  const double ambient = model_->package().ambient;
  if (!options_.transient) {
    if (cores.size() == 1) {
      out.core_peak[0] *= model_->self_resistance()[cores[0]];
      ++pending_solo_lookups_;
    } else {
      model_->steady_factor().solve_subset(cores, out.core_peak, scratch_);
      ++pending_solves_;
    }
    for (double& peak : out.core_peak) peak += ambient;
  } else {
    std::fill(out.core_peak.begin(), out.core_peak.end(), ambient);
    for (std::size_t j = 0; j < cores.size(); ++j) {
      if (core_power[j] == 0.0) continue;
      const double* response = step_response(cores[j], duration);
      for (std::size_t t = 0; t < cores.size(); ++t) {
        out.core_peak[t] += core_power[j] * response[cores[t]];
      }
    }
  }
  // G is an irreducibly diagonally dominant M-matrix, and a backward-Euler
  // rise from ambient never falls, so under either oracle the block
  // maximum lies on a powered core, or is ambient when nothing heats.
  out.max_temperature =
      *std::max_element(out.core_peak.begin(), out.core_peak.end());
  simulation_effort_ += duration;
  ++simulation_count_;
  return out;
}

const double* ThermalAnalyzer::step_response(std::size_t core,
                                             double duration) {
  ++pending_response_lookups_;
  TransientOptions topt;
  topt.dt = options_.dt;
  const auto fill = [&] {
    return unit_step_response(*model_, core, duration, topt);
  };
  const StepResponseTable::Key key{std::bit_cast<std::uint64_t>(options_.dt),
                                   core,
                                   std::bit_cast<std::uint64_t>(duration)};
  if (const double* stored =
          model_->step_responses().row(key, model_->block_count(), fill)) {
    return stored;
  }
  unstored_response_ = fill();
  return unstored_response_.data();
}

void ThermalAnalyzer::fit_scratch() {
  if (scratch_.x.size() != model_->node_count()) {
    scratch_ = linalg::PathScratch(model_->node_count());
  }
}

ThermalAnalyzer::Chained ThermalAnalyzer::simulate_session_from(
    const std::vector<double>& block_power, double duration,
    const std::vector<double>& initial_state) {
  THERMO_REQUIRE(duration > 0.0, "session duration must be positive");
  THERMO_REQUIRE(options_.transient,
                 "chained simulation requires the transient oracle");

  TransientOptions topt;
  topt.dt = options_.dt;
  TransientResult result =
      simulate_transient(*model_, block_power, duration, initial_state, topt);

  Chained out;
  out.final_state = std::move(result.final_temperature);
  out.session = finish_session(std::move(result.peak_temperature), duration);
  return out;
}

std::vector<double> ThermalAnalyzer::cool_down(
    const std::vector<double>& state, double gap) const {
  THERMO_REQUIRE(gap >= 0.0, "cooling gap must be non-negative");
  if (gap == 0.0) return state;
  TransientOptions topt;
  topt.dt = options_.dt;
  return simulate_transient(*model_,
                            std::vector<double>(model_->block_count(), 0.0),
                            gap, state, topt)
      .final_temperature;
}

void ThermalAnalyzer::reset_effort() {
  simulation_effort_ = 0.0;
  simulation_count_ = 0;
}

}  // namespace thermo::thermal
