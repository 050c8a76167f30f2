// for_each_index: fan independent work across threads.
//
// Every parallel loop in the code base is "call fn(i) for each i in
// [0, n), results land in slot i": one Algorithm 1 run per STCL value
// (core::sweep_stcl, Section 5's STCL scan), one serve request per job
// (dispatch::run_batch), one distinct request line per preparation
// (scenario::serve_stream). This function is that loop, and the only
// place that decides how many threads run it.
//
// Workers pull indices from one shared atomic counter: cheap dynamic
// load balancing (a steady solve and a long transient differ wildly in
// cost) without a task allocation per index. The order in which indices
// START is ascending; callers that want another start order index
// through a permutation (dispatch::execution_order).
//
// Determinism is the caller's half of the contract: fn(i) must depend
// only on i and write only slot i, so the results are bit-identical for
// any thread count. Only completion order varies.
#pragma once

#include <cstddef>
#include <functional>

namespace thermo::sweep {

/// Calls fn(i) exactly once for every i in [0, n) on
/// min(threads, n) workers, where threads 0 means
/// std::thread::hardware_concurrency (at least 1), and returns that
/// worker count. With at most one worker, fn runs inline on the calling
/// thread. fn must be safe to call concurrently with itself for
/// distinct i. An exception from fn(i) does not stop the other indices:
/// they all run, and then the first exception thrown is rethrown here.
///
/// Each worker thread records one `sweep.task` trace span and, when obs
/// is enabled, one `sweep.tasks` count, one `sweep.task_ns` sample and
/// its busy time under `sweep.worker.<w>.busy_ns`. An inline run records
/// none of them.
std::size_t for_each_index(std::size_t threads, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

}  // namespace thermo::sweep
