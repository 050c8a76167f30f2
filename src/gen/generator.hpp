// Deterministic workload generation for the serve stack: turn one seed
// plus a handful of distribution knobs into a JSONL request stream the
// `thermosched serve` front-end (and the dispatch engine underneath it)
// can be measured against. Hand-rolled demo batches stop at a dozen
// requests; the daemon/disk-cache/SLO roadmap items need streams of
// millions with *controllable* skew, duplication, and arrival order —
// this layer is that fuel (docs/GEN.md is the user-facing reference).
//
// Determinism contract: generate_stream is a pure function of GenConfig.
// Identical configs produce byte-identical streams — every random choice
// is drawn from one util::Rng seeded with config.seed, and nothing else
// (no clocks, no addresses, no iteration over unordered containers).
// This is what makes generated streams usable as regression anchors:
// a bench or bug report only needs to record the flags, not the stream.
//
// Validity contract: every emitted line is a *canonical* request —
// generated requests are serialized through scenario::to_json_line after
// construction, so parse(line) succeeds and re-serialization is a
// fixpoint by construction (pinned by the tests/gen_test.cpp property
// sweep). Duplicated lines are byte-identical copies of earlier lines,
// id included, which is exactly what serve's memoization keys on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace thermo::gen {

/// Arrival order of the finished stream.
enum class OrderPattern {
  kShuffled,   ///< uniform random permutation (the default)
  kWhaleLast   ///< adversarial: the single costliest request arrives
               ///< last, maximizing the tail a placer cannot fix
};

/// Canonical spelling ("shuffled", "whale-last").
const char* order_pattern_name(OrderPattern order);

/// Inverse of order_pattern_name; nullopt for unknown names.
std::optional<OrderPattern> order_pattern_from_name(std::string_view name);

/// Request-kind mix as relative weights (normalized internally; they do
/// not need to sum to 1).
struct KindMix {
  double sweep = 0.7;    ///< kind "stcl_sweep"
  double ptrace = 0.15;  ///< kind "ptrace" (power-trace replay)
  double chained = 0.15; ///< kind "chained" (chained-session validation)
  /// kind "grid_steady" (fine-grid steady solve). Default 0: a grid
  /// request is orders of magnitude heavier than the rest of the mix,
  /// so streams opt in explicitly — and the 0 weight draws nothing,
  /// keeping pre-knob streams byte-identical (the gen_test golden).
  double grid = 0.0;
};

/// The deadline values --deadline-rate draws from, machine-independent
/// by construction: kTight is far below any real scenario execution (an
/// executed job always misses it; only a planning-time memo hit, whose
/// record exists at window start, meets it), kGenerous is far above any
/// batch makespan (never missed). Tests and bench gates can therefore
/// pin exact miss counts from the stream alone.
constexpr double kTightDeadlineS = 1e-7;
constexpr double kGenerousDeadlineS = 1e6;

struct GenConfig {
  std::uint64_t seed = 1;
  std::size_t count = 1000;  ///< total lines, duplicates included

  /// Size skew: synthetic core counts are drawn from a fixed ladder of
  /// seven sizes (18..512 thermal nodes, smallest first) with Zipf
  /// probability P(rank k) ∝ 1/(k+1)^zipf_skew — rank 0 (smallest)
  /// dominates, the big whales form the heavy tail.
  /// 0 = uniform over the ladder.
  double zipf_skew = 1.5;

  /// Probability that a line is a byte-identical copy of an earlier line
  /// instead of a fresh request, in [0, 1). Fresh requests carry unique
  /// ids, so with --dedup the serve memo hit count equals the duplicate
  /// count exactly (ObsServe.CountersExactlyMatchSummaryStats).
  double dup_rate = 0.0;

  /// Probability that a fresh request carries a deadline_s, in [0, 1]:
  /// half tight (kTightDeadlineS — always missed when executed), half
  /// generous (kGenerousDeadlineS — never missed), so SLO tests can pin
  /// miss counts without timing assumptions. 0 (the default) draws
  /// nothing from the RNG, keeping streams byte-identical to configs
  /// that predate the knob.
  double deadline_rate = 0.0;

  KindMix mix;
  OrderPattern order = OrderPattern::kShuffled;

  /// Throws InvalidArgument on out-of-range knobs
  /// ("gen config: <field>: <problem>").
  void validate() const;
};

/// What the generator actually emitted (per-kind counts include
/// duplicated lines — they are counted as their original's kind).
struct GenStats {
  std::size_t count = 0;       ///< lines emitted
  std::size_t fresh = 0;       ///< distinct requests
  std::size_t duplicates = 0;  ///< byte-identical copies
  std::size_t sweep = 0;
  std::size_t ptrace = 0;
  std::size_t chained = 0;
  std::size_t grid = 0;
  std::size_t deadlined = 0;   ///< lines carrying a deadline_s (dups included)
};

struct GeneratedStream {
  /// Canonical request lines (no trailing newline), in arrival order.
  std::vector<std::string> lines;
  /// scenario::estimate_request_cost per line — what whale-last picks
  /// its whale by, exposed so callers can reason about the skew they got.
  std::vector<double> costs;
  GenStats stats;
};

/// Generates the stream. Pure function of `config` (see determinism
/// contract above); throws InvalidArgument on invalid configs.
GeneratedStream generate_stream(const GenConfig& config);

/// Writes lines + '\n' each; flushes nothing (caller owns the stream).
void write_stream(const GeneratedStream& stream, std::ostream& out);

}  // namespace thermo::gen
