#include "gen/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <ostream>
#include <utility>

#include "scenario/cost.hpp"
#include "scenario/request.hpp"
#include "scenario/runner.hpp"
#include "thermal/ptrace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::gen {

namespace {

using scenario::RequestKind;
using scenario::ScenarioRequest;
using scenario::SocKind;

[[noreturn]] void fail(const std::string& field, const std::string& message) {
  throw InvalidArgument("gen config: " + field + ": " + message);
}

/// Fresh-request ids: "g000000", "g000001"... Unique per stream, so two
/// distinct requests can never share a serve memo key; only deliberate
/// duplicates (verbatim line copies) dedup.
std::string serial_id(std::size_t serial) {
  std::string digits = std::to_string(serial);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return "g" + digits;
}

/// Synthetic sweep sizes: cores + 10 package nodes gives 18..512
/// thermal nodes.
constexpr std::array<std::size_t, 7> kCoreLadder = {8,   16,  34, 64,
                                                    128, 246, 502};

/// Zipf CDF over ladder ranks: P(k) ∝ 1/(k+1)^skew.
std::vector<double> zipf_cdf(std::size_t n, double skew) {
  std::vector<double> cdf(n, 0.0);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t sample_cdf(Rng& rng, const std::vector<double>& cdf) {
  const double u = rng.uniform();
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    if (u < cdf[k]) return k;
  }
  return cdf.size() - 1;
}

/// Synthetic geometry seeds are drawn from a deliberately tiny pool so a
/// long stream revisits the same floorplans: that keeps the number of
/// distinct geometries far below ScenarioRunner::kMaxCachedModels and
/// lets the solver cache amortize factorizations — the generated stream
/// measures scheduling throughput, not repeated Cholesky.
constexpr std::uint64_t kGeometrySeeds = 4;

/// One STCL-sweep request. Small ranks occasionally use the named SoCs
/// (alpha/fig1) for variety; everything else is synthetic at the ladder
/// size. Mostly steady-state oracles — the point of a big stream is
/// serve-stack behaviour, and steady keeps a 10k-request batch runnable
/// on CI; a small transient slice keeps that path exercised too.
ScenarioRequest make_sweep(Rng& rng, std::size_t cores) {
  ScenarioRequest r;
  r.kind = RequestKind::kStclSweep;
  if (cores <= 16 && rng.chance(0.3)) {
    r.soc.kind = rng.chance(0.5) ? SocKind::kAlpha : SocKind::kFig1;
  } else {
    r.soc.kind = SocKind::kSynthetic;
    r.soc.synthetic.cores = cores;
    r.soc.synthetic.seed =
        static_cast<std::uint64_t>(rng.uniform_int(1, kGeometrySeeds));
    const double length = cores >= 128 ? 0.05 : 0.2;
    r.soc.synthetic.test_length_min = length;
    r.soc.synthetic.test_length_max = length;
    if (cores >= 128) {
      // The big rungs need headroom: many hot cores in one session push
      // peaks well past the default 155 C (bench_serve_gates's whale
      // uses the same corner).
      r.tl = 400.0;
    }
  }
  r.soc.power_scale = 1.0 + 0.001 * static_cast<double>(rng.uniform_int(0, 99));
  const double stcl = static_cast<double>(
      rng.uniform_int(30, cores >= 128 ? 120 : 80));
  r.stcl.min = r.stcl.max = stcl;
  if (cores < 128 && rng.chance(0.2)) {
    r.stcl.max = stcl + 20.0;
    r.stcl.step = 10.0;  // a 3-point mini-sweep
  }
  if (cores <= 64 && rng.chance(0.15)) {
    r.solver.transient = true;
    r.solver.dt = 0.01;  // coarse: the slice is for path coverage
  } else {
    r.solver.transient = false;
  }
  return r;
}

/// Block names + test powers for a selector, built once per distinct
/// geometry per stream (the generator needs them to emit trace columns
/// that align with the floorplan a replay will build).
const core::SocSpec& soc_for(
    std::map<std::string, core::SocSpec>& cache,
    const scenario::SocSelector& selector) {
  const std::string key = selector.geometry_key();
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  return cache.emplace(key, scenario::ScenarioRunner::build_soc(selector))
      .first->second;
}

/// One power-trace replay request: a small SoC, 3..8 trace steps, each
/// block drawing a random fraction of its test power (rounded to mW so
/// the inline text stays short). step_duration == dt: one backward-Euler
/// step per trace line — replay cost is the line count, which is exactly
/// what the cost mapping claims via oracle_calls.
ScenarioRequest make_ptrace(Rng& rng,
                            std::map<std::string, core::SocSpec>& socs) {
  ScenarioRequest r;
  r.kind = RequestKind::kPtrace;
  const int pick = static_cast<int>(rng.uniform_int(0, 2));
  if (pick == 0) {
    r.soc.kind = SocKind::kAlpha;
  } else if (pick == 1) {
    r.soc.kind = SocKind::kFig1;
  } else {
    r.soc.kind = SocKind::kSynthetic;
    r.soc.synthetic.cores = rng.chance(0.5) ? 16 : 34;
    r.soc.synthetic.seed =
        static_cast<std::uint64_t>(rng.uniform_int(1, kGeometrySeeds));
  }
  const core::SocSpec& soc = soc_for(socs, r.soc);

  thermal::PowerTrace trace;
  for (std::size_t b = 0; b < soc.flp.size(); ++b) {
    trace.unit_names.push_back(soc.flp.block(b).name);
  }
  const std::size_t steps = static_cast<std::size_t>(rng.uniform_int(3, 8));
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<double> row(soc.flp.size(), 0.0);
    for (std::size_t b = 0; b < row.size(); ++b) {
      const double base = b < soc.tests.size() ? soc.tests[b].power : 1.0;
      const double watts = base * rng.uniform(0.2, 1.0);
      row[b] = std::round(watts * 1000.0) / 1000.0;
    }
    trace.steps.push_back(std::move(row));
  }
  r.ptrace.text = thermal::to_ptrace_string(trace);
  r.ptrace.step_duration = 0.01;
  r.solver.transient = true;
  r.solver.dt = 0.01;
  return r;
}

/// One chained-session request: schedule a small SoC at one STCL value
/// with the cheap steady oracle, then replay the sessions back to back
/// (transient, residual heat carried) with a small cooling gap.
ScenarioRequest make_chained(Rng& rng) {
  ScenarioRequest r;
  r.kind = RequestKind::kChained;
  if (rng.chance(0.4)) {
    r.soc.kind = rng.chance(0.5) ? SocKind::kAlpha : SocKind::kFig1;
  } else {
    r.soc.kind = SocKind::kSynthetic;
    r.soc.synthetic.cores = rng.chance(0.5) ? 8 : 16;
    r.soc.synthetic.seed =
        static_cast<std::uint64_t>(rng.uniform_int(1, kGeometrySeeds));
    r.soc.synthetic.test_length_min = 0.2;
    r.soc.synthetic.test_length_max = 0.2;
  }
  r.stcl.min = r.stcl.max = static_cast<double>(rng.uniform_int(40, 70));
  r.solver.transient = false;
  r.solver.dt = 0.01;  // step of the transient chained replay
  const double gaps[] = {0.0, 0.25, 0.5};
  r.chained.cooling_gap = gaps[rng.uniform_index(3)];
  return r;
}

/// One fine-grid steady request: a named SoC discretised at one of a
/// few ladder resolutions. 64..160 per side keeps a generated stream's
/// grid slice heavy (4k..26k nodes) without
/// turning every stream into a 100k-node soak — that scale has its own
/// dedicated smoke (smoke.thermosched_serve_100k in apps/CMakeLists.txt).
ScenarioRequest make_grid(Rng& rng) {
  ScenarioRequest r;
  r.kind = RequestKind::kGridSteady;
  r.soc.kind = rng.chance(0.5) ? SocKind::kAlpha : SocKind::kFig1;
  const std::size_t sides[] = {64, 96, 128, 160};
  const std::size_t side = sides[rng.uniform_index(4)];
  r.grid.rows = side;
  r.grid.cols = side;
  r.soc.power_scale = 1.0 + 0.001 * static_cast<double>(rng.uniform_int(0, 99));
  return r;
}

/// Applies the arrival-order pattern in place (lines/costs permuted
/// together). Sorts are stable on the pre-permutation index, so order is
/// a pure function of the generated costs.
void apply_order(OrderPattern order, Rng& rng, std::vector<std::string>& lines,
                 std::vector<double>& costs) {
  const std::size_t n = lines.size();
  if (n < 2 || order == OrderPattern::kAsGenerated) return;

  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  switch (order) {
    case OrderPattern::kAsGenerated:
      break;
    case OrderPattern::kShuffled:
      rng.shuffle(perm);
      break;
    case OrderPattern::kSortedAsc:
      std::stable_sort(perm.begin(), perm.end(),
                       [&](std::size_t a, std::size_t b) {
                         return costs[a] < costs[b];
                       });
      break;
    case OrderPattern::kSortedDesc:
      std::stable_sort(perm.begin(), perm.end(),
                       [&](std::size_t a, std::size_t b) {
                         return costs[a] > costs[b];
                       });
      break;
    case OrderPattern::kWhaleLast: {
      // Shuffle, then move the costliest request to the very end — the
      // arrival order a cost-aware placer can do least about.
      rng.shuffle(perm);
      std::size_t whale_pos = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (costs[perm[i]] > costs[perm[whale_pos]]) whale_pos = i;
      }
      std::rotate(perm.begin() + static_cast<std::ptrdiff_t>(whale_pos),
                  perm.begin() + static_cast<std::ptrdiff_t>(whale_pos) + 1,
                  perm.end());
      break;
    }
  }

  std::vector<std::string> new_lines(n);
  std::vector<double> new_costs(n);
  for (std::size_t i = 0; i < n; ++i) {
    new_lines[i] = std::move(lines[perm[i]]);
    new_costs[i] = costs[perm[i]];
  }
  lines = std::move(new_lines);
  costs = std::move(new_costs);
}

}  // namespace

const char* order_pattern_name(OrderPattern order) {
  switch (order) {
    case OrderPattern::kAsGenerated: return "as-generated";
    case OrderPattern::kShuffled: return "shuffled";
    case OrderPattern::kSortedAsc: return "sorted";
    case OrderPattern::kSortedDesc: return "sorted-desc";
    case OrderPattern::kWhaleLast: return "whale-last";
  }
  return "?";
}

std::optional<OrderPattern> order_pattern_from_name(std::string_view name) {
  if (name == "as-generated") return OrderPattern::kAsGenerated;
  if (name == "shuffled") return OrderPattern::kShuffled;
  if (name == "sorted") return OrderPattern::kSortedAsc;
  if (name == "sorted-desc") return OrderPattern::kSortedDesc;
  if (name == "whale-last") return OrderPattern::kWhaleLast;
  return std::nullopt;
}

void GenConfig::validate() const {
  if (count < 1) fail("count", "must be >= 1");
  if (!std::isfinite(zipf_skew) || zipf_skew < 0.0) {
    fail("zipf_skew", "must be finite and >= 0");
  }
  if (!std::isfinite(dup_rate) || dup_rate < 0.0 || dup_rate >= 1.0) {
    fail("dup_rate", "must be in [0, 1)");
  }
  if (!std::isfinite(deadline_rate) || deadline_rate < 0.0 ||
      deadline_rate > 1.0) {
    fail("deadline_rate", "must be in [0, 1]");
  }
  for (const auto& [weight, name] :
       {std::pair{mix.sweep, "mix.sweep"}, {mix.ptrace, "mix.ptrace"},
        {mix.chained, "mix.chained"}, {mix.grid, "mix.grid"}}) {
    if (!std::isfinite(weight) || weight < 0.0) {
      fail(name, "must be finite and >= 0");
    }
  }
  if (mix.sweep + mix.ptrace + mix.chained + mix.grid <= 0.0) {
    fail("mix", "at least one kind weight must be > 0");
  }
}

GeneratedStream generate_stream(const GenConfig& config) {
  config.validate();

  Rng rng(config.seed);
  const std::vector<double> ladder_cdf =
      zipf_cdf(kCoreLadder.size(), config.zipf_skew);
  const double mix_total = config.mix.sweep + config.mix.ptrace +
                           config.mix.chained + config.mix.grid;
  const double sweep_cut = config.mix.sweep / mix_total;
  const double ptrace_cut = sweep_cut + config.mix.ptrace / mix_total;
  const double chained_cut = ptrace_cut + config.mix.chained / mix_total;

  std::map<std::string, core::SocSpec> socs;
  GeneratedStream stream;
  stream.lines.reserve(config.count);
  stream.costs.reserve(config.count);
  std::vector<RequestKind> kinds;  // per line, for stats
  kinds.reserve(config.count);
  std::vector<char> deadlined;     // per line, for stats
  deadlined.reserve(config.count);

  for (std::size_t i = 0; i < config.count; ++i) {
    if (!stream.lines.empty() && rng.chance(config.dup_rate)) {
      // Verbatim copy, id included: the line is byte-identical to an
      // earlier one, which is exactly what serve's memo keys on.
      const std::size_t source =
          static_cast<std::size_t>(rng.uniform_index(stream.lines.size()));
      stream.lines.push_back(stream.lines[source]);
      stream.costs.push_back(stream.costs[source]);
      kinds.push_back(kinds[source]);
      deadlined.push_back(deadlined[source]);
      ++stream.stats.duplicates;
      continue;
    }
    ScenarioRequest request;
    const double kind_draw = rng.uniform();
    if (kind_draw < sweep_cut) {
      request = make_sweep(rng, kCoreLadder[sample_cdf(rng, ladder_cdf)]);
    } else if (kind_draw < ptrace_cut) {
      request = make_ptrace(rng, socs);
    } else if (kind_draw < chained_cut || config.mix.grid <= 0.0) {
      request = make_chained(rng);
    } else {
      request = make_grid(rng);
    }
    // The outer rate check short-circuits: a deadline_rate of 0 draws
    // NOTHING, so streams from configs predating the knob stay
    // byte-identical (the gen_test golden pins this).
    if (config.deadline_rate > 0.0 && rng.chance(config.deadline_rate)) {
      request.deadline_s =
          rng.chance(0.5) ? kTightDeadlineS : kGenerousDeadlineS;
    }
    deadlined.push_back(request.deadline_s > 0.0 ? 1 : 0);
    request.id = serial_id(stream.stats.fresh);
    stream.lines.push_back(scenario::to_json_line(request));
    stream.costs.push_back(scenario::estimate_request_cost(request));
    kinds.push_back(request.kind);
    ++stream.stats.fresh;
  }

  apply_order(config.order, rng, stream.lines, stream.costs);

  stream.stats.count = stream.lines.size();
  for (const RequestKind kind : kinds) {
    switch (kind) {
      case RequestKind::kStclSweep: ++stream.stats.sweep; break;
      case RequestKind::kPtrace: ++stream.stats.ptrace; break;
      case RequestKind::kChained: ++stream.stats.chained; break;
      case RequestKind::kGridSteady: ++stream.stats.grid; break;
    }
  }
  for (const char flag : deadlined) {
    if (flag != 0) ++stream.stats.deadlined;
  }
  return stream;
}

void write_stream(const GeneratedStream& stream, std::ostream& out) {
  for (const std::string& line : stream.lines) {
    out << line << '\n';
  }
}

}  // namespace thermo::gen
