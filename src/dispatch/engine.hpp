// The dispatch engine: cost-aware batch execution with result
// memoization and streaming ordered output.
//
// This is the layer between a batch front-end (scenario::serve_stream)
// and the fan-out (sweep::for_each_index): the front-end describes the
// batch as jobs, one per distinct content address (Job: address,
// estimated cost, deadline; execution_order.hpp), the job that answers
// each output line, and a pure execute function. The engine owns *how*
// the batch runs —
//
//   memo        each keyed job is looked up once, in one
//               ResultMemo::find_all over the keys in first-line order
//               before any job executes: lookups on the pool, with the
//               outcome of a find() loop; a found record is written to
//               the job's lines in input order on the calling thread,
//               without a copy;
//   placement   execution_order orders the other jobs' starts (fifo /
//               ljf / edf);
//   streaming   a job's record goes to the OrderedWriter for each of its
//               lines the moment it exists, emitted in input order;
//   timing      per-line wall + thread-CPU seconds and the batch
//               makespan, for the serve summary and bench_serve_gates.
//
// Hard invariant (pinned by tests + smoke + bench): because execute is
// pure per job and records are placed by line index, the output bytes
// are identical across thread counts, policies, and memo contents.
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
  double wall_seconds = 0.0;  ///< 0 on memo hits
  double cpu_seconds = 0.0;   ///< executing thread's CPU time (0 where
                              ///< the platform offers no thread clock)
  /// Queue wait: execution-window start to the job's execution start,
  /// in the same steady clock as done_seconds (0 for memo hits — they
  /// never queue). What the scheduling policy actually controls.
  double wait_seconds = 0.0;
  /// Completion offset from the start of the execution window: when
  /// this line's record existed, in the same clock deadlines are
  /// expressed in. 0 for planning-time memo hits (their record exists
  /// before any worker starts); all lines of a job share its completion.
  double done_seconds = 0.0;
  /// Record served without executing: a memo hit, or a line of an
  /// executed job other than its first.
  bool memo_hit = false;
};

struct EngineStats {
  std::size_t executed = 0;  ///< jobs run; every other line is a memo hit
  /// Workers that actually executed: the configured (or hardware)
  /// count capped by the number of scheduled jobs — 0 when everything
  /// was answered from the memo.
  std::size_t threads = 0;
  double makespan_seconds = 0.0;  ///< execution window (first start to last completion)
  std::size_t max_buffered = 0;   ///< writer high-water mark (skew cost)
  std::vector<JobTiming> timings; ///< index-aligned with the lines
};

struct EngineOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency.
  std::size_t threads = 0;
  SchedulePolicy policy = SchedulePolicy::kFifo;
  /// Memo to consult/populate (borrowed) for jobs with a memo_key,
  /// answering them across batches; nullptr = nothing is looked up or
  /// stored, and every job executes.
  ResultMemo* memo = nullptr;
};

/// Runs the batch. Line i is answered by job `job_of_line[i]`; fifo starts
/// jobs in the order of their first lines, and a job that answers no
/// line never runs. `execute(j)` must return job j's record and be safe
/// to call concurrently for distinct j (it is called at most once per
/// job). `writer` must be constructed for exactly job_of_line.size()
/// records and is finish()ed before returning. Exceptions escaping
/// execute propagate once every other job has run (first one wins) —
/// front-ends that want per-job error records must catch inside execute.
EngineStats run_batch(const std::vector<Job>& jobs,
                      const std::vector<std::size_t>& job_of_line,
                      const std::function<std::string(std::size_t)>& execute,
                      OrderedWriter& writer, const EngineOptions& options = {});

}  // namespace thermo::dispatch
