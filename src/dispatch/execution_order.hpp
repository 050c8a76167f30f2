// execution_order: the work placement of the dispatch layer.
//
// serve-style batches are wildly skewed — ROADMAP measured one
// 1034-node sparse request at ~100× an Alpha request — so *which job a
// freed worker picks next* decides the batch makespan and who meets
// their deadline. execution_order owns exactly that decision, as a pure
// function of (items, policy). The policies:
//
//  * fifo     — input order, the historical serve behaviour:
//               predictable, but a whale request near the end of the
//               batch starts after all the small fry and sets the
//               makespan almost by accident.
//  * ljf      — longest-job-first by estimated cost: the classic LPT
//               heuristic for makespan on identical machines. Whales
//               start first, small jobs backfill the other workers.
//  * edf      — earliest-deadline-first: jobs with the nearest
//               deadline_s start first; deadline-free jobs (kNoDeadline
//               = +inf) sort after every deadlined one. The classic
//               miss-count heuristic when a batch carries SLOs.
//  * priority — weighted-shortest-processing-time by cost/priority
//               ratio (a.cost/a.priority ascending): high-priority
//               cheap jobs first, which minimises priority-weighted
//               total completion time.
//  * srpt     — shortest-job-first by estimated cost (the remaining
//               time of a never-preempted job is its full cost):
//               minimises mean completion time, the latency-friendly
//               counterpoint to ljf's makespan focus.
//
// A policy's comparator orders by its *primary key only* — no index
// tiebreak inside the comparator. execution_order applies it with
// stable_sort over the input order, so equal keys keep their input
// order and the result never depends on timing.
//
// The policy reorders *execution start* only. Result placement is by
// input index (dispatch::OrderedWriter), so output bytes are identical
// across policies — the hard serve invariant. bench_serve_gates gates
// the makespan and deadline-miss wins in CI.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

namespace thermo::dispatch {

enum class SchedulePolicy {
  kFifo,      ///< input order (historical serve behaviour)
  kLjf,       ///< longest-job-first by estimated cost
  kEdf,       ///< earliest-deadline-first (deadline-free jobs last)
  kPriority,  ///< smallest cost/priority ratio first (WSPT)
  kSrpt       ///< shortest-job-first by estimated cost
};

/// Deadline value of a job without one: +inf, so edf's ascending sort
/// naturally places deadline-free work after every deadlined job.
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// One schedulable job as a policy comparator sees it.
struct WorkItem {
  std::size_t index = 0;          ///< input position (result placement key)
  double cost = 0.0;              ///< Job::cost: relative units, only its order counts
  double deadline = kNoDeadline;  ///< seconds from batch start; kNoDeadline if unset
  double priority = 1.0;          ///< relative weight, higher = more urgent
};

/// Canonical spelling used in CLI/JSON ("fifo", "ljf", "edf",
/// "priority", "srpt").
const char* schedule_policy_name(SchedulePolicy policy);

/// Inverse of schedule_policy_name; nullopt for anything else. Callers
/// (the serve flag, bench) own their error reporting.
std::optional<SchedulePolicy> schedule_policy_from_name(std::string_view name);

/// The items' `index` fields in the order their jobs should start under
/// `policy`: stable-sorted by the policy's key, so ties keep their
/// order in `items`. Throws InvalidArgument unless every item's cost is
/// finite and >= 0, its deadline > 0 (kNoDeadline allowed, NaN not) and
/// its priority finite and > 0.
std::vector<std::size_t> execution_order(std::vector<WorkItem> items,
                                         SchedulePolicy policy);

}  // namespace thermo::dispatch
