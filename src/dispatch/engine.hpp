// The dispatch engine: cost-aware batch execution with result
// memoization and streaming ordered output.
//
// This is the layer between a batch front-end (scenario::serve_stream)
// and the fan-out (sweep::for_each_index): the front-end describes
// each job as a Job {content address, estimated cost, deadline}
// (execution_order.hpp) plus a pure execute function, and the engine
// owns *how* the batch runs —
//
//   placement   execution_order orders execution starts (fifo / ljf /
//               edf);
//   dedup       jobs sharing a content address execute once: a prior
//               batch's record is served from the ResultMemo, and
//               within-batch duplicates are grouped behind one leader
//               (deterministically, on the calling thread, so hit
//               counts do not depend on worker timing);
//   streaming   every record goes to the OrderedWriter the moment it
//               exists, emitted in input order as soon as its index is
//               next;
//   timing      per-job wall + thread-CPU seconds and the batch
//               makespan, for the serve summary and bench_serve_gates.
//
// Hard invariant (pinned by tests + smoke + bench): because execute is
// pure per job and records are placed by input index, the output bytes
// are identical across thread counts, policies, and dedup on/off —
// policies and memoization may only change *when* work runs, never what
// is written.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dispatch/execution_order.hpp"
#include "dispatch/ordered_writer.hpp"
#include "dispatch/result_memo.hpp"

namespace thermo::dispatch {

struct JobTiming {
  double wall_seconds = 0.0;  ///< 0 for memoized jobs
  double cpu_seconds = 0.0;   ///< executing thread's CPU time (0 where
                              ///< the platform offers no thread clock)
  /// Queue wait: execution-window start to this job's execution start,
  /// in the same steady clock as done_seconds (0 for memo hits — they
  /// never queue). What the scheduling policy actually controls.
  double wait_seconds = 0.0;
  /// Completion offset from the start of the execution window: when
  /// this job's record existed, in the same clock deadlines are
  /// expressed in. 0 for planning-time memo hits (their record exists
  /// before any worker starts); within-batch duplicates inherit their
  /// leader's completion.
  double done_seconds = 0.0;
  bool memo_hit = false;      ///< record served without executing
};

struct EngineStats {
  std::size_t executed = 0;   ///< jobs that actually ran
  std::size_t memo_hits = 0;  ///< cross-batch memo hits + grouped dups
  /// Workers that actually executed: the configured (or hardware)
  /// count capped by the number of scheduled jobs — 0 when everything
  /// was answered from the memo.
  std::size_t threads = 0;
  double makespan_seconds = 0.0;  ///< execution window (first start to last completion)
  std::size_t max_buffered = 0;   ///< writer high-water mark (skew cost)
  std::vector<JobTiming> timings; ///< index-aligned with the jobs
};

struct EngineOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency.
  std::size_t threads = 0;
  SchedulePolicy policy = SchedulePolicy::kFifo;
  /// false disables ALL memoization (every job executes) — the output
  /// bytes must not change, only the work done.
  bool dedup = true;
  /// Memo to consult/populate (borrowed), enabling dedup across
  /// batches; nullptr = no memo at all: nothing is looked up or stored,
  /// and within-batch duplicates still ride on their leader.
  ResultMemo* memo = nullptr;
};

/// Runs the batch: `execute(i)` must return job i's record and be safe
/// to call concurrently with itself for distinct i (it is called at
/// most once per job). Records stream to `writer` in index order;
/// `writer` must be constructed for exactly jobs.size() records and is
/// finish()ed before returning. Exceptions escaping execute propagate
/// once every other job has run (first one wins) — front-ends that want
/// per-job error records must catch inside execute.
EngineStats run_batch(const std::vector<Job>& jobs,
                      const std::function<std::string(std::size_t)>& execute,
                      OrderedWriter& writer, const EngineOptions& options = {});

}  // namespace thermo::dispatch
