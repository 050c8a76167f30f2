// WorkQueue: the policy-pluggable work placement of the dispatch layer.
//
// serve-style batches are wildly skewed — ROADMAP measured one
// 1034-node sparse request at ~100× an Alpha request — so *which job a
// freed worker picks next* decides the batch makespan and who meets
// their deadline. The queue owns exactly that decision through a
// name-keyed registry of ordering policies (the same registration idiom
// as SPDK's pluggable accel modules). Built-ins:
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
// tiebreak inside the comparator. seal() applies it with stable_sort
// over insertion order, so equal keys keep ascending input index and
// the pop order is a pure function of (items, policy), never of push
// timing. That also makes third-party policies (register_schedule_policy)
// deterministic for free.
//
// The policy reorders *execution start* only. Result placement is by
// input index (dispatch::OrderedWriter), so output bytes are identical
// across policies — the hard serve invariant. bench_serve_gates gates
// the makespan and deadline-miss wins in CI.
//
// Usage: push() every job, seal() once, then pop() concurrently from
// worker threads. pop() after seal() is a lock-free atomic fetch over a
// frozen order (the same shared-counter idiom as sweep::ScenarioSweep).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace thermo::dispatch {

/// Built-in policies; third-party registrations are addressed by name
/// only (register_schedule_policy).
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
  double cost = 0.0;              ///< CostModel estimate (relative or seconds)
  double deadline = kNoDeadline;  ///< seconds from batch start; kNoDeadline if unset
  double priority = 1.0;          ///< relative weight, higher = more urgent
};

/// Strict-weak-order over the policy's primary key ONLY (return false
/// on ties) — stable_sort supplies the ascending-index tiebreak. An
/// empty function means "keep insertion order" (fifo).
using PolicyOrder = std::function<bool(const WorkItem&, const WorkItem&)>;

/// Canonical spelling used in CLI/JSON ("fifo", "ljf", "edf",
/// "priority", "srpt").
const char* schedule_policy_name(SchedulePolicy policy);

/// Inverse of schedule_policy_name; nullopt for anything else. Callers
/// (the serve flag, bench) own their error reporting.
std::optional<SchedulePolicy> schedule_policy_from_name(std::string_view name);

/// Registers a named ordering policy; the built-ins above are
/// preregistered. Throws InvalidArgument on an empty name or a name
/// already taken (including the built-ins) — policies are process-wide
/// and first registration wins forever. Thread-safe.
void register_schedule_policy(std::string_view name, PolicyOrder order);

/// True when `name` resolves to a registered policy. Thread-safe.
bool schedule_policy_registered(std::string_view name);

/// All registered policy names, sorted. Thread-safe.
std::vector<std::string> registered_schedule_policies();

class WorkQueue {
 public:
  explicit WorkQueue(SchedulePolicy policy = SchedulePolicy::kFifo);
  /// Registry lookup by name — how third-party policies are reached.
  /// Throws InvalidArgument when `policy_name` is not registered.
  explicit WorkQueue(std::string_view policy_name);

  const std::string& policy_name() const { return policy_name_; }

  /// Enqueues job `index` with its estimated cost (deadline-free,
  /// priority 1). Only valid before seal().
  void push(std::size_t index, double cost);

  /// Enqueues one job. Guards: cost must be finite and >= 0, deadline
  /// must be > 0 (kNoDeadline allowed, NaN not), priority must be
  /// finite and > 0. Only valid before seal().
  void push(const WorkItem& item);

  /// Freezes the pop order: stable-sorts insertion order by the
  /// policy's comparator (fifo keeps insertion order as-is). Ties keep
  /// ascending input index, so the order — and therefore worker
  /// assignment under 1 thread — is fully deterministic. Only valid
  /// once.
  void seal();

  /// Next job index, or nullopt when drained. Thread-safe after seal();
  /// wait-free (one fetch_add per pop).
  std::optional<std::size_t> pop();

  std::size_t size() const { return order_.size(); }

 private:
  std::string policy_name_;
  PolicyOrder order_fn_;
  bool sealed_ = false;
  std::vector<WorkItem> order_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace thermo::dispatch
