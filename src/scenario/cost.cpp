#include "scenario/cost.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>

#include "thermal/rc_model.hpp"
#include "util/strings.hpp"

namespace thermo::scenario {

namespace {

// Relative units, fitted to rank the skewed bench_serve_gates batch
// against measured per-request wall time.
/// Oracle validations per scheduled core (committed sessions plus the
/// discard/re-try churn of Algorithm 1's weighting loop).
constexpr double kValidationsPerCore = 2.0;
/// Session-model + bookkeeping cost per oracle call, in node units
/// (keeps tiny steady requests from rounding to zero).
constexpr double kPerCallOverhead = 50.0;
/// Fixed per-request floor (parse, SoC build, serialization).
constexpr double kPerRequest = 1000.0;

/// Fallback block count when a `.flp` file cannot be read at estimation
/// time (the run itself will fail loudly later; the estimate just needs
/// *a* rank). Mid-sized is the safe wrong answer — a misranked .flp job
/// degrades ljf toward fifo, nothing more.
constexpr std::size_t kFlpCoreGuess = 40;

/// Lines with content (line_content), exactly the lines flp_io and
/// ptrace_io parse.
std::size_t count_content_lines(std::istream& in) {
  std::size_t count = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line_content(line).empty()) ++count;
  }
  return count;
}

/// Content lines of a file, cached by path. Estimation runs once per
/// request line, so a 10k-request batch naming the same .flp/.ptrace
/// must not read it 10k times; the cache is process-lifetime (paths in
/// a batch are assumed stable while it runs, same contract as the
/// runner's model cache).
std::size_t cached_file_content_lines(const std::string& path) {
  static std::mutex mutex;
  static std::map<std::string, std::size_t> cache;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(path);
    if (it != cache.end()) return it->second;
  }
  std::size_t count = 0;
  std::ifstream in(path);
  if (in) count = count_content_lines(in);
  const std::lock_guard<std::mutex> lock(mutex);
  return cache.emplace(path, count).first->second;
}

/// Block count of a `.flp` request read from the file itself (one
/// non-comment line per block), replacing the old fixed guess; the
/// guess survives only as the unreadable-file fallback.
std::size_t flp_block_count(const std::string& path) {
  const std::size_t count = cached_file_content_lines(path);
  return count > 0 ? count : kFlpCoreGuess;
}

std::size_t estimated_cores(const SocSelector& soc) {
  switch (soc.kind) {
    case SocKind::kAlpha: return 15;
    case SocKind::kFig1: return 7;
    case SocKind::kSynthetic: return soc.synthetic.cores;
    case SocKind::kFlp: return flp_block_count(soc.flp_path);
  }
  return kFlpCoreGuess;
}

double mean_test_length(const SocSelector& soc) {
  if (soc.kind == SocKind::kSynthetic) {
    return 0.5 * (soc.synthetic.test_length_min + soc.synthetic.test_length_max);
  }
  return 1.0;  // the named SoCs ship 1 s tests (docs/ARCHITECTURE.md)
}

/// Trace steps of a ptrace request: content lines minus the unit-name
/// header. Inline text is counted directly; a path goes through the
/// file cache. Never returns 0 — an unreadable trace still needs a rank.
std::size_t ptrace_step_count(const PtraceSpec& ptrace) {
  std::size_t lines = 0;
  if (!ptrace.text.empty()) {
    std::istringstream in(ptrace.text);
    lines = count_content_lines(in);
  } else {
    lines = cached_file_content_lines(ptrace.path);
  }
  return std::max<std::size_t>(lines, 2) - 1;
}

}  // namespace

double estimate_request_cost(const ScenarioRequest& request) {
  const std::size_t cores = estimated_cores(request.soc);
  // A grid request's model size is the discretisation, not the core
  // count: rows·cols cells + the package nodes. That is exactly the
  // request shape (no estimate needed) and is what makes a 317×317 grid
  // solve rank as the whale it is.
  const std::size_t nodes =
      (request.kind == RequestKind::kGridSteady
           ? request.grid.rows * request.grid.cols
           : cores) +
      thermal::kPackageNodes;
  double steps = 1.0;  // back-substitutions per oracle call
  double calls =
      kValidationsPerCore *
      static_cast<double>(std::max<std::size_t>(cores, 1));
  double points = 1.0;
  switch (request.kind) {
    case RequestKind::kStclSweep:
      if (request.solver.transient) {
        steps =
            std::max(1.0, mean_test_length(request.soc) / request.solver.dt);
      }
      points = static_cast<double>(
          std::max<std::size_t>(request.stcl.values().size(), 1));
      break;
    case RequestKind::kPtrace:
      // Replay is exactly one transient call per trace step, each
      // integrating step_duration seconds: the request shape gives the
      // call count up front, no Algorithm 1 estimate needed.
      steps = std::max(1.0, request.ptrace.step_duration / request.solver.dt);
      calls = static_cast<double>(ptrace_step_count(request.ptrace));
      break;
    case RequestKind::kChained:
      // Schedule generation at one STCL point plus a transient chained
      // replay of every committed session; the replay dominates, so this
      // costs as a transient single-point run even when the scheduling
      // oracle itself is steady-state.
      steps = std::max(1.0, mean_test_length(request.soc) / request.solver.dt);
      break;
    case RequestKind::kGridSteady:
      // One steady-state solve of the rows·cols grid. The cold
      // factorization is folded into the fixed per-call term.
      calls = 1.0;
      break;
  }
  // A back-substitution touches every non-zero of the sparse factor.
  const double n = static_cast<double>(nodes);
  const double factor_nnz = n * (4.0 + std::log2(n));
  return kPerRequest + points * calls * (steps * factor_nnz + kPerCallOverhead);
}

}  // namespace thermo::scenario
