#include "scenario/runner.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/safety_checker.hpp"
#include "core/thermal_scheduler.hpp"
#include "floorplan/flp_io.hpp"
#include "soc/alpha.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/ptrace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::scenario {

namespace {

/// Per-kind run observability: execution count + wall histogram + the
/// span name (a static literal, as the trace ring requires).
struct KindMetrics {
  obs::Counter& runs;
  obs::Histogram& run_ns;
  const char* span_name;
};

KindMetrics& kind_metrics(RequestKind kind) {
  auto& registry = obs::MetricsRegistry::instance();
  static KindMetrics sweep{registry.counter("scenario.run.stcl_sweep"),
                           registry.histogram("scenario.run.stcl_sweep_ns"),
                           "scenario.run.stcl_sweep"};
  static KindMetrics ptrace{registry.counter("scenario.run.ptrace"),
                            registry.histogram("scenario.run.ptrace_ns"),
                            "scenario.run.ptrace"};
  static KindMetrics chained{registry.counter("scenario.run.chained"),
                             registry.histogram("scenario.run.chained_ns"),
                             "scenario.run.chained"};
  static KindMetrics grid{registry.counter("scenario.run.grid_steady"),
                          registry.histogram("scenario.run.grid_steady_ns"),
                          "scenario.run.grid_steady"};
  switch (kind) {
    case RequestKind::kPtrace: return ptrace;
    case RequestKind::kChained: return chained;
    case RequestKind::kGridSteady: return grid;
    case RequestKind::kStclSweep: break;
  }
  return sweep;
}

obs::Histogram& model_build_ns() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::instance().histogram("scenario.model_build_ns");
  return histogram;
}

}  // namespace

JsonValue to_json(const ScenarioResult& result) {
  JsonValue out = JsonValue::object();
  out.set("id", JsonValue::string(result.id));
  out.set("ok", JsonValue::boolean(result.ok));
  if (!result.ok) {
    out.set("error", JsonValue::string(result.error));
    return out;
  }
  out.set("kind", JsonValue::string(request_kind_name(result.kind)));
  out.set("soc", JsonValue::string(result.soc_name));
  out.set("cores", JsonValue::number(static_cast<double>(result.cores)));
  if (result.kind == RequestKind::kPtrace) {
    JsonValue trace = JsonValue::object();
    trace.set("steps",
              JsonValue::number(static_cast<double>(result.ptrace.steps)));
    trace.set("duration", JsonValue::number(result.ptrace.duration));
    trace.set("max_temperature",
              JsonValue::number(result.ptrace.max_temperature));
    trace.set("hottest", JsonValue::string(result.ptrace.hottest));
    out.set("trace", std::move(trace));
    out.set("simulation_effort", JsonValue::number(result.simulation_effort));
    return out;
  }
  if (result.kind == RequestKind::kChained) {
    JsonValue schedule = JsonValue::object();
    schedule.set("stcl", JsonValue::number(result.chained.stcl));
    schedule.set("length", JsonValue::number(result.chained.schedule_length));
    schedule.set("sessions",
                 JsonValue::number(static_cast<double>(result.chained.sessions)));
    schedule.set("effective_tl", JsonValue::number(result.chained.effective_tl));
    out.set("schedule", std::move(schedule));
    JsonValue chained = JsonValue::object();
    chained.set("cooling_gap", JsonValue::number(result.chained.cooling_gap));
    chained.set("independent_max_temperature",
                JsonValue::number(result.chained.independent_max));
    chained.set("chained_max_temperature",
                JsonValue::number(result.chained.chained_max));
    chained.set("violations", JsonValue::number(static_cast<double>(
                                  result.chained.violations)));
    chained.set("safe", JsonValue::boolean(result.chained.safe));
    out.set("chained", std::move(chained));
    out.set("simulation_effort", JsonValue::number(result.simulation_effort));
    return out;
  }
  if (result.kind == RequestKind::kGridSteady) {
    JsonValue grid = JsonValue::object();
    grid.set("rows", JsonValue::number(static_cast<double>(result.grid.rows)));
    grid.set("cols", JsonValue::number(static_cast<double>(result.grid.cols)));
    grid.set("nodes",
             JsonValue::number(static_cast<double>(result.grid.nodes)));
    grid.set("max_cell_temperature",
             JsonValue::number(result.grid.max_cell_temperature));
    grid.set("mean_cell_temperature",
             JsonValue::number(result.grid.mean_cell_temperature));
    grid.set("max_block_temperature",
             JsonValue::number(result.grid.max_block_temperature));
    grid.set("hottest", JsonValue::string(result.grid.hottest));
    out.set("grid", std::move(grid));
    out.set("simulation_effort", JsonValue::number(result.simulation_effort));
    return out;
  }
  JsonValue points = JsonValue::array();
  for (const core::StclSweepPoint& point : result.points) {
    JsonValue p = JsonValue::object();
    p.set("stcl", JsonValue::number(point.stcl));
    p.set("schedule_length", JsonValue::number(point.schedule_length));
    p.set("simulation_effort", JsonValue::number(point.simulation_effort));
    p.set("sessions", JsonValue::number(static_cast<double>(point.sessions)));
    p.set("max_temperature", JsonValue::number(point.max_temperature));
    p.set("discarded_sessions",
          JsonValue::number(static_cast<double>(point.discarded_sessions)));
    p.set("effective_tl",
          JsonValue::number(point.effective_temperature_limit));
    points.append(std::move(p));
  }
  out.set("points", std::move(points));
  out.set("simulation_effort", JsonValue::number(result.simulation_effort));
  return out;
}

double auto_stc_scale(SocKind kind) {
  return kind == SocKind::kAlpha ? soc::alpha_stc_scale() : 2.8e-3;
}

namespace {

/// build_soc before its power scaling and checks.
core::SocSpec make_soc(const SocSelector& selector) {
  core::SocSpec soc;
  switch (selector.kind) {
    case SocKind::kAlpha:
      soc = soc::alpha_soc();
      break;
    case SocKind::kFig1:
      soc = soc::fig1_soc();
      break;
    case SocKind::kSynthetic: {
      Rng rng(selector.synthetic.seed);
      soc::SyntheticOptions options;
      options.core_count = selector.synthetic.cores;
      options.chip_width = selector.synthetic.chip_width;
      options.chip_height = selector.synthetic.chip_height;
      options.power_density_min = selector.synthetic.power_density_min;
      options.power_density_max = selector.synthetic.power_density_max;
      options.test_length_min = selector.synthetic.test_length_min;
      options.test_length_max = selector.synthetic.test_length_max;
      soc = soc::make_synthetic_soc(rng, options);
      break;
    }
    case SocKind::kFlp: {
      soc.flp = floorplan::load_flp(selector.flp_path);
      soc.name = soc.flp.name();
      soc.package = thermal::PackageParams{};
      for (std::size_t i = 0; i < soc.flp.size(); ++i) {
        soc.tests.push_back(core::CoreTest{
            selector.flp_density * soc.flp.block(i).area(), 1.0});
      }
      break;
    }
  }
  return soc;
}

void scale_powers(core::SocSpec& soc, double power_scale) {
  if (power_scale != 1.0) {
    for (core::CoreTest& test : soc.tests) test.power *= power_scale;
  }
}

}  // namespace

core::SocSpec ScenarioRunner::build_soc(const SocSelector& selector) {
  core::SocSpec soc = make_soc(selector);
  scale_powers(soc, selector.power_scale);
  soc.validate();
  return soc;
}

std::shared_ptr<ScenarioRunner::Entry> ScenarioRunner::entry_for(
    const SocSelector& selector) {
  std::string key = selector.geometry_key();
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= kMaxCachedModels) {
      // A request still holding the evicted entry finishes on it.
      entries_.erase(std::min_element(
          entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
            return a.second->last_used < b.second->last_used;
          }));
    }
    it = entries_.emplace(std::move(key), std::make_shared<Entry>()).first;
  }
  it->second->last_used = ++use_counter_;
  return it->second;
}

core::SocSpec ScenarioRunner::soc_for(Entry& entry,
                                      const SocSelector& selector) {
  SocSelector unscaled = selector;
  unscaled.power_scale = 1.0;
  std::shared_ptr<const core::SocSpec> built;
  {
    const std::lock_guard<std::mutex> lock(entry.mutex);
    for (const auto& [key, soc] : entry.socs) {
      if (key == unscaled) built = soc;
    }
    if (built == nullptr) {
      built = std::make_shared<const core::SocSpec>(make_soc(unscaled));
      if (entry.socs.size() >= kMaxSocsPerModel) {
        entry.socs.erase(entry.socs.begin());
      }
      entry.socs.emplace_back(std::move(unscaled), built);
      soc_builds_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  core::SocSpec soc = *built;
  scale_powers(soc, selector.power_scale);
  soc.validate();
  return soc;
}

std::shared_ptr<const core::PreparedModel> ScenarioRunner::prepared(
    Entry& entry, const core::SocSpec& soc) {
  const std::lock_guard<std::mutex> lock(entry.mutex);
  const bool built = entry.model == nullptr;
  if (built) {
    obs::TraceSpan build_span("scenario.model_build");
    obs::ScopedTimer build_timer(model_build_ns());
    entry.model = std::make_shared<const core::PreparedModel>(soc);
  }
  count_model(built);
  return entry.model;
}

std::shared_ptr<const thermal::RCModel> ScenarioRunner::model_for(
    const SocSelector& selector, const core::SocSpec& soc) {
  return prepared(*entry_for(selector), soc)->rc_model();
}

std::shared_ptr<const thermal::GridThermalModel> ScenarioRunner::grid_model(
    Entry& entry, const core::SocSpec& soc, const GridSpec& grid) {
  const std::lock_guard<std::mutex> lock(entry.mutex);
  for (const auto& model : entry.grids) {
    if (model->rows() == grid.rows && model->cols() == grid.cols) {
      count_model(false);
      return model;
    }
  }
  // Assembly is sparse-first, O(nnz) even for a 100k-node grid; the
  // fill-ordered factorization happens later, on the model's first
  // solve, outside this lock.
  obs::TraceSpan build_span("scenario.model_build");
  obs::ScopedTimer build_timer(model_build_ns());
  auto model = std::make_shared<const thermal::GridThermalModel>(
      soc.flp, soc.package, thermal::GridOptions{grid.rows, grid.cols});
  if (entry.grids.size() >= kMaxGridsPerModel) {
    entry.grids.erase(entry.grids.begin());
  }
  entry.grids.push_back(model);
  count_model(true);
  return model;
}

void ScenarioRunner::count_model(bool built) {
  (built ? model_misses_ : model_hits_).fetch_add(1, std::memory_order_relaxed);
}

ScenarioRunner::Stats ScenarioRunner::stats() const {
  return Stats{model_hits_.load(std::memory_order_relaxed),
               model_misses_.load(std::memory_order_relaxed),
               soc_builds_.load(std::memory_order_relaxed)};
}

namespace {

/// The request's Algorithm 1 settings; stc_limit stays at its default
/// (the sweep sets it per point, the chained run to its one value).
core::ThermalSchedulerOptions scheduler_options(const ScenarioRequest& request) {
  core::ThermalSchedulerOptions options;
  options.temperature_limit = request.tl;
  options.weight_factor = request.weight_factor;
  options.solo_policy = request.solo_policy;
  options.core_order = request.core_order;
  options.model.stc_scale = request.stc_scale > 0.0
                                ? request.stc_scale
                                : auto_stc_scale(request.soc.kind);
  return options;
}

void run_stcl_sweep(const ScenarioRequest& request,
                    const core::PreparedSoc& soc, ScenarioResult& result) {
  core::StclSweepConfig config;
  config.scheduler = scheduler_options(request);
  config.analyzer.dt = request.solver.dt;
  config.analyzer.transient = request.solver.transient;
  // threads = 1: runs inline on this thread — serve already fans
  // *requests* across a pool, so per-request point loops stay serial.
  config.threads = 1;

  result.points = core::sweep_stcl(soc, request.stcl.values(), config);
  for (const core::StclSweepPoint& point : result.points) {
    result.simulation_effort += point.simulation_effort;
  }
}

}  // namespace

void run_ptrace(const ScenarioRequest& request, const core::PreparedSoc& soc,
                ScenarioResult& result) {
  const thermal::PowerTrace trace =
      (request.ptrace.text.empty()
           ? thermal::load_ptrace(request.ptrace.path)
           : thermal::parse_ptrace_string(request.ptrace.text))
          .aligned_to(soc.soc.flp);
  if (trace.step_count() == 0) {
    throw InvalidArgument("ptrace contains no time steps");
  }

  thermal::ThermalAnalyzer::Options options;
  options.dt = request.solver.dt;
  options.transient = true;  // enforced at parse: replay carries state
  thermal::ThermalAnalyzer analyzer(soc.model.rc_model(), options);

  std::vector<double> state = thermal::ambient_state(analyzer.model());
  std::size_t hottest = 0;
  result.ptrace.steps = trace.step_count();
  result.ptrace.duration =
      static_cast<double>(trace.step_count()) * request.ptrace.step_duration;
  for (const std::vector<double>& row : trace.steps) {
    thermal::ThermalAnalyzer::Chained step = analyzer.simulate_session_from(
        row, request.ptrace.step_duration, state);
    state = std::move(step.final_state);
    // The maximum starts from the first step, not from 0 °C: at a
    // sub-zero ambient every step can peak below 0.
    if (&row == &trace.steps.front() ||
        step.session.max_temperature > result.ptrace.max_temperature) {
      result.ptrace.max_temperature = step.session.max_temperature;
      hottest = step.session.hottest_block;
    }
  }
  result.ptrace.hottest = soc.soc.flp.block(hottest).name;
  result.simulation_effort = analyzer.simulation_effort();
}

namespace {

void run_chained(const ScenarioRequest& request, const core::PreparedSoc& soc,
                 ScenarioResult& result) {
  core::ThermalSchedulerOptions options = scheduler_options(request);
  options.stc_limit = request.stcl.min;  // single value, enforced at parse

  thermal::ThermalAnalyzer::Options sched_options;
  sched_options.dt = request.solver.dt;
  sched_options.transient = request.solver.transient;
  thermal::ThermalAnalyzer sched_analyzer(soc.model.rc_model(),
                                          sched_options);

  const core::ThermalAwareScheduler scheduler(options);
  const core::ScheduleResult sched = scheduler.generate(
      soc, sched_analyzer, core::solo_prepass(soc.soc, sched_analyzer));

  // The chained replay always needs transient state carry-over, whatever
  // oracle the schedule was *generated* with.
  thermal::ThermalAnalyzer::Options check_options = sched_options;
  check_options.transient = true;
  thermal::ThermalAnalyzer check_analyzer(soc.model.rc_model(), check_options);
  core::SafetyChecker::Options chain;
  chain.chained = true;
  chain.cooling_gap = request.chained.cooling_gap;
  const core::SafetyChecker checker(scheduler.effective_temperature_limit(),
                                    chain);
  const core::SafetyReport report =
      checker.check(soc.soc, sched.schedule, check_analyzer);

  result.chained.stcl = request.stcl.min;
  result.chained.schedule_length = sched.schedule_length;
  result.chained.sessions = sched.schedule.session_count();
  result.chained.effective_tl = scheduler.effective_temperature_limit();
  result.chained.cooling_gap = request.chained.cooling_gap;
  result.chained.independent_max = sched.max_temperature;
  result.chained.chained_max = report.max_temperature;
  result.chained.violations = report.violations.size();
  result.chained.safe = report.safe;
  result.simulation_effort =
      sched_analyzer.simulation_effort() + check_analyzer.simulation_effort();
}

void run_grid_steady(const core::SocSpec& soc,
                     const std::shared_ptr<const thermal::GridThermalModel>& model,
                     ScenarioResult& result) {
  // Every block dissipates its test power simultaneously — the
  // all-cores-under-test worst case the grid oracle is asked to resolve
  // at cell granularity (power_scale is already applied by build_soc).
  std::vector<double> power(soc.tests.size(), 0.0);
  for (std::size_t i = 0; i < soc.tests.size(); ++i) {
    power[i] = soc.tests[i].power;
  }
  const thermal::GridSteadyResult steady = model->solve(power);

  result.grid.rows = model->rows();
  result.grid.cols = model->cols();
  result.grid.nodes = model->node_count();
  double max_cell = steady.cell_temperature.empty()
                        ? 0.0
                        : steady.cell_temperature.front();
  double sum = 0.0;
  for (const double t : steady.cell_temperature) {
    if (t > max_cell) max_cell = t;
    sum += t;
  }
  result.grid.max_cell_temperature = max_cell;
  result.grid.mean_cell_temperature =
      steady.cell_temperature.empty()
          ? 0.0
          : sum / static_cast<double>(steady.cell_temperature.size());
  std::size_t hottest = 0;
  for (std::size_t b = 1; b < steady.block_max_temperature.size(); ++b) {
    if (steady.block_max_temperature[b] >
        steady.block_max_temperature[hottest]) {
      hottest = b;
    }
  }
  if (!steady.block_max_temperature.empty()) {
    result.grid.max_block_temperature = steady.block_max_temperature[hottest];
    result.grid.hottest = soc.flp.block(hottest).name;
  }
  // Steady state simulates no transient seconds; the record's effort
  // metric stays 0 by design (wall time is serve's stderr concern).
  result.simulation_effort = 0.0;
}

}  // namespace

ScenarioResult ScenarioRunner::run(const ScenarioRequest& request) {
  KindMetrics& metrics = kind_metrics(request.kind);
  obs::TraceSpan run_span(metrics.span_name);
  obs::ScopedTimer run_timer(metrics.run_ns);
  metrics.runs.add();
  ScenarioResult result;
  result.id = request.id;
  result.kind = request.kind;
  try {
    const std::shared_ptr<Entry> entry = entry_for(request.soc);
    const core::SocSpec soc = soc_for(*entry, request.soc);
    result.soc_name = soc.name;
    result.cores = soc.core_count();

    if (request.kind == RequestKind::kGridSteady) {
      // The block-level model is never consulted for a grid solve, so
      // skip preparing it entirely — at 100k nodes the savings matter.
      run_grid_steady(soc, grid_model(*entry, soc, request.grid), result);
    } else {
      const auto model = prepared(*entry, soc);
      const core::PreparedSoc prepared_soc{soc, *model};
      switch (request.kind) {
        case RequestKind::kStclSweep:
          run_stcl_sweep(request, prepared_soc, result);
          break;
        case RequestKind::kPtrace:
          run_ptrace(request, prepared_soc, result);
          break;
        case RequestKind::kChained:
          run_chained(request, prepared_soc, result);
          break;
        case RequestKind::kGridSteady:
          break;  // handled above
      }
    }
    result.ok = true;
  } catch (const Error& e) {
    result.ok = false;
    result.error = e.what();
    result.points.clear();
    result.ptrace = PtraceOutcome{};
    result.chained = ChainedOutcome{};
    result.grid = GridOutcome{};
    result.simulation_effort = 0.0;
  }
  return result;
}

}  // namespace thermo::scenario
