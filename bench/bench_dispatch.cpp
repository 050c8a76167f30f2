// Dispatch-layer record: does cost-aware placement actually cut the
// makespan of a skewed batch, and does the result memo actually dedup?
//
//   ./build/bench/bench_dispatch                        # table
//   ./build/bench/bench_dispatch --json BENCH_dispatch.json
//
// The batch is the ROADMAP skew scenario: 60 small Alpha requests
// (distinct power corners, transient oracle) plus ONE 1034-thermal-node
// synthetic sparse request — the whale — placed LAST in the input.
// Under fifo the whale starts only after the small fry drain, so the
// batch makespan is roughly smalls/threads + whale; under ljf the whale
// starts first and the smalls backfill the other workers. Each policy
// runs `--reps` times on `--threads` workers (dedup off, fresh runner,
// min makespan wins) and every run's output must be byte-identical to a
// 1-thread reference — placement may never change the bytes.
//
// The JSON record (schema "thermo.bench_dispatch.v3") is CI-gated. Two
// gates are timing-based and hold only when gate_enforced (>= 4 worker
// threads AND >= 4 hardware threads — on fewer cores there is no
// parallelism for placement to exploit, so they are recorded but not
// enforced):
//   * ljf_makespan_s < fifo_makespan_s;
//   * slo.edf_ok: on a deadline batch (heavy deadline-free requests
//     arriving first, light 100 ms-deadline requests behind them), edf
//     placement must miss no more deadlines than fifo.
// The rest are exact and always enforced:
//   * memo_hit_rate == 1.0: serving the identical batch twice through
//     one shared memo must answer every second-pass request from it;
//   * cost_rank_ok: the CostModel must rank the whale as the most
//     expensive request AND the measured per-request wall times must
//     agree — the check that keeps ljf meaningful;
//   * deterministic also covers the edf/priority/srpt policies —
//     placement inputs may never change the bytes.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dispatch/result_memo.hpp"
#include "scenario/cost.hpp"
#include "scenario/request.hpp"
#include "scenario/serve.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace thermo;

std::string skewed_batch(std::size_t small_count) {
  std::string input;
  for (std::size_t i = 0; i < small_count; ++i) {
    scenario::ScenarioRequest small;
    small.id = "small-" + std::to_string(i);
    // Distinct corners so the memo cannot collapse the batch.
    small.soc.power_scale = 1.0 + 0.001 * static_cast<double>(i);
    small.stcl.min = small.stcl.max = 50.0;
    input += scenario::to_json_line(small) + "\n";
  }
  scenario::ScenarioRequest whale;
  whale.id = "whale";
  whale.soc.kind = scenario::SocKind::kSynthetic;
  whale.soc.synthetic.seed = 7;
  whale.soc.synthetic.cores = 1024;  // 1034 thermal nodes
  whale.soc.synthetic.test_length_min = 0.02;
  whale.soc.synthetic.test_length_max = 0.02;
  whale.tl = 400.0;
  whale.stcl.min = 100.0;
  whale.stcl.max = 120.0;
  whale.stcl.step = 10.0;
  whale.solver.transient = false;
  input += scenario::to_json_line(whale) + "\n";  // deliberately LAST
  return input;
}

/// The SLO batch: `heavy_count` deadline-free 246-core synthetic steady
/// requests arrive FIRST, then `light_count` Alpha requests that each
/// demand completion within 100 ms of the execution-window start. Under
/// fifo every worker grabs a heavy request before any light one starts;
/// under edf the deadlined lights (deadline 0.1 < +inf) all start
/// first. The records are identical either way — only the miss count
/// moves, which is exactly what the slo gate scores.
std::string slo_batch(std::size_t heavy_count, std::size_t light_count) {
  std::string input;
  for (std::size_t i = 0; i < heavy_count; ++i) {
    scenario::ScenarioRequest heavy;
    heavy.id = "heavy-" + std::to_string(i);
    heavy.soc.kind = scenario::SocKind::kSynthetic;
    heavy.soc.synthetic.seed = 3;
    heavy.soc.synthetic.cores = 246;  // 256 nodes: the first sparse rung
    heavy.soc.synthetic.test_length_min = 0.05;
    heavy.soc.synthetic.test_length_max = 0.05;
    heavy.soc.power_scale = 1.0 + 0.001 * static_cast<double>(i);
    heavy.tl = 400.0;
    heavy.stcl.min = heavy.stcl.max = 100.0;
    heavy.solver.transient = false;
    input += scenario::to_json_line(heavy) + "\n";
  }
  for (std::size_t i = 0; i < light_count; ++i) {
    scenario::ScenarioRequest light;
    light.id = "light-" + std::to_string(i);
    light.soc.power_scale = 1.0 + 0.001 * static_cast<double>(i);
    light.stcl.min = light.stcl.max = 50.0;
    light.deadline_s = 0.1;
    input += scenario::to_json_line(light) + "\n";
  }
  return input;
}

struct Run {
  std::string output;
  scenario::ServeSummary summary;
};

Run run_batch(const std::string& requests, const scenario::ServeOptions& options,
              scenario::ScenarioRunner* shared_runner = nullptr) {
  std::istringstream in(requests);
  std::ostringstream out;
  scenario::ScenarioRunner local_runner;  // cold model cache per run
  scenario::ScenarioRunner& runner =
      shared_runner != nullptr ? *shared_runner : local_runner;
  const auto summary = scenario::serve_stream(in, out, runner, options);
  return Run{out.str(), summary};
}

}  // namespace

int main(int argc, char** argv) {
  long long threads = 4;
  long long reps = 2;
  long long small_count = 60;
  std::string json_path;
  CliParser cli("bench_dispatch",
                "Makespan + memoization record for the dispatch engine "
                "(skewed 1x1034-node + N-small serve batch)");
  cli.add_int("threads", "Worker threads for the policy runs", &threads);
  cli.add_int("reps", "Timed repetitions per policy (min wins)", &reps);
  cli.add_int("smalls", "Small Alpha requests in the batch", &small_count);
  cli.add_string("json", "Write BENCH_dispatch.json-style record here",
                 &json_path);
  try {
    if (!cli.parse(argc, argv)) return 0;
    THERMO_REQUIRE(threads >= 1, "--threads must be >= 1");
    THERMO_REQUIRE(reps >= 1, "--reps must be >= 1");
    THERMO_REQUIRE(small_count >= 4, "--smalls must be >= 4");

    const std::string requests =
        skewed_batch(static_cast<std::size_t>(small_count));
    const std::size_t request_count =
        static_cast<std::size_t>(small_count) + 1;

    // 1-thread fifo reference: the bytes every other configuration must
    // reproduce, and the serial per-request timing baseline.
    scenario::ServeOptions reference_options;
    reference_options.threads = 1;
    reference_options.dedup = false;
    const Run reference = run_batch(requests, reference_options);
    THERMO_REQUIRE(reference.summary.failed == 0,
                   "reference run had failing requests");

    // Policy comparison: dedup off (isolates placement), fresh runner
    // per run (same cold-cache work for both policies), min over reps.
    // fifo/ljf are the timed pair; edf/priority/srpt run once each,
    // covering the full policy byte-identity claim in the same sweep.
    bool deterministic = true;
    double makespans[2] = {0.0, 0.0};
    for (const dispatch::SchedulePolicy policy :
         {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kLjf,
          dispatch::SchedulePolicy::kEdf, dispatch::SchedulePolicy::kPriority,
          dispatch::SchedulePolicy::kSrpt}) {
      const bool timed = policy == dispatch::SchedulePolicy::kFifo ||
                         policy == dispatch::SchedulePolicy::kLjf;
      const long long policy_reps = timed ? reps : 1;
      double best = 0.0;
      for (long long rep = 0; rep < policy_reps; ++rep) {
        scenario::ServeOptions options;
        options.threads = static_cast<std::size_t>(threads);
        options.policy = policy;
        options.dedup = false;
        const Run run = run_batch(requests, options);
        deterministic = deterministic && run.output == reference.output;
        if (rep == 0 || run.summary.makespan_seconds < best) {
          best = run.summary.makespan_seconds;
        }
      }
      if (timed) {
        makespans[policy == dispatch::SchedulePolicy::kLjf ? 1 : 0] = best;
      }
    }
    const double fifo_makespan = makespans[0];
    const double ljf_makespan = makespans[1];
    const double speedup =
        ljf_makespan > 0.0 ? fifo_makespan / ljf_makespan : 0.0;

    // Cost-model validation against the serial reference timings: the
    // whale (input-last) must be both the estimated AND the measured
    // most-expensive request, and its measured skew should be large —
    // that is the whole premise of ljf placement.
    const auto& timings = reference.summary.request_timings;
    const std::size_t whale_index = timings.size() - 1;
    bool cost_rank_ok = true;
    std::vector<double> small_walls;
    for (std::size_t i = 0; i < timings.size(); ++i) {
      if (i == whale_index) continue;
      cost_rank_ok = cost_rank_ok &&
                     timings[whale_index].cost > timings[i].cost &&
                     timings[whale_index].wall_seconds > timings[i].wall_seconds;
      small_walls.push_back(timings[i].wall_seconds);
    }
    std::sort(small_walls.begin(), small_walls.end());
    const double small_median = small_walls[small_walls.size() / 2];
    const double measured_ratio =
        small_median > 0.0 ? timings[whale_index].wall_seconds / small_median
                           : 0.0;

    // Memoization: the identical batch served twice through one shared
    // memo — the second pass must answer EVERY request from it.
    dispatch::ResultMemo memo;
    scenario::ScenarioRunner memo_runner;
    scenario::ServeOptions memo_options;
    memo_options.threads = static_cast<std::size_t>(threads);
    memo_options.memo = &memo;
    const Run memo_first = run_batch(requests, memo_options, &memo_runner);
    const Run memo_second = run_batch(requests, memo_options, &memo_runner);
    deterministic = deterministic && memo_first.output == reference.output &&
                    memo_second.output == reference.output;
    const double memo_hit_rate =
        static_cast<double>(memo_second.summary.memo_hits) /
        static_cast<double>(request_count);

    // SLO: the deadline batch under fifo vs edf at --threads. The gate
    // is tie-tolerant (<=): a machine fast enough that even fifo meets
    // every 100 ms deadline proves nothing against edf.
    const std::string slo_requests = slo_batch(6, 12);
    std::size_t slo_missed[2] = {0, 0};
    std::size_t slo_deadline_requests = 0;
    std::string slo_reference;
    for (const dispatch::SchedulePolicy policy :
         {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kEdf}) {
      scenario::ServeOptions options;
      options.threads = static_cast<std::size_t>(threads);
      options.policy = policy;
      options.dedup = false;
      const Run run = run_batch(slo_requests, options);
      THERMO_REQUIRE(run.summary.failed == 0,
                     "slo batch had failing requests");
      if (policy == dispatch::SchedulePolicy::kFifo) {
        slo_reference = run.output;
        slo_deadline_requests = run.summary.deadline_requests;
      } else {
        deterministic = deterministic && run.output == slo_reference;
      }
      slo_missed[policy == dispatch::SchedulePolicy::kEdf ? 1 : 0] =
          run.summary.deadline_missed;
    }
    const bool edf_ok = slo_missed[1] <= slo_missed[0];

    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const bool gate_enforced =
        threads >= 4 && hardware >= 4;  // no parallelism, no placement win
    const bool ljf_wins = ljf_makespan < fifo_makespan;

    std::cout << "dispatch batch: " << request_count << " requests ("
              << small_count << " small + 1 whale, whale last), "
              << threads << " threads, " << reps << " reps\n"
              << "  fifo makespan: " << format_double(fifo_makespan, 3)
              << " s\n"
              << "  ljf  makespan: " << format_double(ljf_makespan, 3)
              << " s (" << format_double(speedup, 2) << "x)\n"
              << "  whale wall   : "
              << format_double(timings[whale_index].wall_seconds, 3)
              << " s (" << format_double(measured_ratio, 1)
              << "x the median small; cost model ranks it "
              << (cost_rank_ok ? "first" : "WRONG") << ")\n"
              << "  memo 2nd pass: " << memo_second.summary.memo_hits << "/"
              << request_count << " hits ("
              << format_double(memo_hit_rate * 100.0, 1) << "%)\n"
              << "  slo deadlines: fifo missed " << slo_missed[0] << "/"
              << slo_deadline_requests << ", edf missed " << slo_missed[1]
              << "/" << slo_deadline_requests << " ("
              << (edf_ok ? "ok" : "EDF WORSE") << ")\n"
              << "  deterministic: " << (deterministic ? "yes" : "NO") << '\n';
    if (!gate_enforced) {
      std::cout << "  note: ljf and edf timing gates not enforced ("
                << threads << " worker threads, " << hardware
                << " hardware threads)\n";
    }

    if (!json_path.empty()) {
      JsonValue record = JsonValue::object();
      record.set("schema", JsonValue::string("thermo.bench_dispatch.v3"));
      record.set("requests",
                 JsonValue::number(static_cast<double>(request_count)));
      record.set("small_requests",
                 JsonValue::number(static_cast<double>(small_count)));
      record.set("whale_nodes", JsonValue::number(1034.0));
      record.set("threads", JsonValue::number(static_cast<double>(threads)));
      record.set("reps", JsonValue::number(static_cast<double>(reps)));
      record.set("fifo_makespan_s", JsonValue::number(fifo_makespan));
      record.set("ljf_makespan_s", JsonValue::number(ljf_makespan));
      record.set("ljf_speedup", JsonValue::number(speedup));
      record.set("whale_wall_s",
                 JsonValue::number(timings[whale_index].wall_seconds));
      record.set("small_wall_median_s", JsonValue::number(small_median));
      record.set("measured_whale_ratio", JsonValue::number(measured_ratio));
      record.set("estimated_whale_cost",
                 JsonValue::number(timings[whale_index].cost));
      record.set("cost_rank_ok", JsonValue::boolean(cost_rank_ok));
      record.set("memo_hits", JsonValue::number(static_cast<double>(
                                  memo_second.summary.memo_hits)));
      record.set("memo_hit_rate", JsonValue::number(memo_hit_rate));
      record.set("deterministic", JsonValue::boolean(deterministic));
      record.set("gate_enforced", JsonValue::boolean(gate_enforced));
      JsonValue slo = JsonValue::object();
      slo.set("deadline_requests",
              JsonValue::number(static_cast<double>(slo_deadline_requests)));
      slo.set("fifo_missed",
              JsonValue::number(static_cast<double>(slo_missed[0])));
      slo.set("edf_missed",
              JsonValue::number(static_cast<double>(slo_missed[1])));
      slo.set("edf_ok", JsonValue::boolean(edf_ok));
      record.set("slo", std::move(slo));
      std::ofstream out(json_path);
      THERMO_REQUIRE(static_cast<bool>(out),
                     "cannot open --json path for writing");
      out << record.dump() << '\n';
      out.flush();
      THERMO_REQUIRE(out.good(), "failed writing '" + json_path + "'");
      std::cout << "wrote " << json_path << '\n';
    }

    if (!deterministic) {
      std::cerr << "error: outputs differ across policies/threads/dedup\n";
      return 1;
    }
    if (memo_hit_rate != 1.0) {
      std::cerr << "error: second-pass memo hit rate "
                << format_double(memo_hit_rate * 100.0, 1) << "% != 100%\n";
      return 1;
    }
    if (!cost_rank_ok) {
      std::cerr << "error: cost model failed to rank the whale first\n";
      return 1;
    }
    if (gate_enforced && !ljf_wins) {
      std::cerr << "error: ljf makespan " << format_double(ljf_makespan, 3)
                << " s did not beat fifo " << format_double(fifo_makespan, 3)
                << " s on " << threads << " threads\n";
      return 1;
    }
    if (gate_enforced && !edf_ok) {
      std::cerr << "error: edf missed " << slo_missed[1]
                << " deadlines vs fifo's " << slo_missed[0] << '\n';
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
