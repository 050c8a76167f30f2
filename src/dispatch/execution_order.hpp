// execution_order: the work placement of the dispatch layer.
//
// serve-style batches are wildly skewed — ROADMAP measured one
// 1034-node sparse request at ~100× an Alpha request — so *which job a
// freed worker picks next* decides the batch makespan and who meets
// their deadline. execution_order owns exactly that decision, as a pure
// function of (jobs, scheduled indices, policy). The policies:
//
//  * fifo — input order, the historical serve behaviour: predictable,
//           but a whale request near the end of the batch starts after
//           all the small fry and sets the makespan almost by accident.
//  * ljf  — longest-job-first by estimated cost: the classic LPT
//           heuristic for makespan on identical machines. Whales start
//           first, small jobs backfill the other workers.
//  * edf  — earliest-deadline-first: jobs with the nearest deadline
//           start first; deadline-free jobs (kNoDeadline = +inf) sort
//           after every deadlined one. The classic miss-count heuristic
//           when a batch carries SLOs.
//
// A policy's comparator orders by its *primary key only* — no index
// tiebreak inside the comparator. execution_order applies it with
// stable_sort over the scheduled order, so equal keys keep that order
// and the result never depends on timing.
//
// The policy reorders *execution start* only. Result placement is by
// input index (dispatch::OrderedWriter), so output bytes are identical
// across policies — the hard serve invariant. bench_serve_gates gates
// the makespan and deadline-miss wins in CI.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace thermo::dispatch {

enum class SchedulePolicy {
  kFifo,  ///< input order (historical serve behaviour)
  kLjf,   ///< longest-job-first by estimated cost
  kEdf    ///< earliest-deadline-first (deadline-free jobs last)
};

/// Deadline value of a job without one: +inf, so edf's ascending sort
/// naturally places deadline-free work after every deadlined job.
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// One unit of batch work, as the front-end describes it. The engine
/// never inspects record contents; everything it needs is here.
struct Job {
  /// Content address: the canonical serialization of whatever the job
  /// computes from — identical bytes MUST imply an identical record.
  /// Empty = not memoizable (always executes, never enters the memo);
  /// front-ends use that for records that depend on batch position,
  /// e.g. parse failures carrying a line number.
  std::string memo_key;
  /// Estimated execution cost in the front-end's relative units (serve:
  /// scenario::estimate_request_cost); only its ordering matters, and
  /// only under ljf.
  double cost = 0.0;
  /// SLO deadline in seconds from the start of the execution window;
  /// kNoDeadline when the job has none. Orders execution under edf and
  /// is scored against JobTiming::done_seconds — never changes output.
  double deadline = kNoDeadline;
};

/// Canonical spelling used in CLI/JSON ("fifo", "ljf", "edf").
const char* schedule_policy_name(SchedulePolicy policy);

/// Inverse of schedule_policy_name; nullopt for anything else. Callers
/// (the serve flag, bench) own their error reporting.
std::optional<SchedulePolicy> schedule_policy_from_name(std::string_view name);

/// `scheduled` (indices into `jobs`) in the order their jobs should
/// start under `policy`: stable-sorted by the policy's key, so ties keep
/// their order in `scheduled`. Throws InvalidArgument unless every
/// scheduled job's cost is finite and >= 0 and its deadline > 0
/// (kNoDeadline allowed, NaN not).
std::vector<std::size_t> execution_order(const std::vector<Job>& jobs,
                                         std::vector<std::size_t> scheduled,
                                         SchedulePolicy policy);

}  // namespace thermo::dispatch
