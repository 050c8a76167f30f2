// The dispatch layer in isolation: the execution_order policies, the
// content-addressed result memo (FNV addressing, LRU), the streaming
// ordered writer, and the engine's hard invariant — output bytes identical across thread counts, policies,
// and dedup settings.
#include "dispatch/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dispatch/execution_order.hpp"
#include "dispatch/ordered_writer.hpp"
#include "dispatch/result_memo.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace thermo::dispatch {
namespace {

TEST(SchedulePolicy, NamesRoundTrip) {
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kFifo), "fifo");
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kLjf), "ljf");
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kEdf), "edf");
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kPriority), "priority");
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kSrpt), "srpt");
  for (SchedulePolicy policy :
       {SchedulePolicy::kFifo, SchedulePolicy::kLjf, SchedulePolicy::kEdf,
        SchedulePolicy::kPriority, SchedulePolicy::kSrpt}) {
    EXPECT_EQ(schedule_policy_from_name(schedule_policy_name(policy)), policy);
  }
  EXPECT_EQ(schedule_policy_from_name("sjf"), std::nullopt);
  EXPECT_EQ(schedule_policy_from_name(""), std::nullopt);
}

/// Builds a WorkItem inline; kNoDeadline / priority 1 defaults apply.
WorkItem item(std::size_t index, double cost, double deadline = kNoDeadline,
              double priority = 1.0) {
  return {index, cost, deadline, priority};
}

using Order = std::vector<std::size_t>;

TEST(WorkQueue, FifoPopsInInsertionOrder) {
  EXPECT_EQ(execution_order({item(0, 5.0), item(1, 50.0), item(2, 0.5)},
                            SchedulePolicy::kFifo),
            (Order{0, 1, 2}));
}

TEST(WorkQueue, LjfPopsByDescendingCostWithIndexTiebreak) {
  EXPECT_EQ(execution_order({item(0, 1.0), item(1, 9.0), item(2, 1.0),
                             item(3, 100.0), item(4, 9.0)},
                            SchedulePolicy::kLjf),
            (Order{3, 1, 4, 0, 2}));
}

TEST(WorkQueue, EdfPopsByAscendingDeadlineWithDeadlineFreeLast) {
  EXPECT_EQ(execution_order(
                {
                    item(0, 9.0),          // no deadline: after every deadlined job
                    item(1, 1.0, 5.0),
                    item(2, 1.0, 0.5),
                    item(3, 1.0, 5.0),     // ties 1 on deadline: index breaks it
                    item(4, 50.0, 2.0),
                    item(5, 1.0),          // ties 0 at kNoDeadline: index again
                },
                SchedulePolicy::kEdf),
            (Order{2, 4, 1, 3, 0, 5}));
}

TEST(WorkQueue, PriorityPopsByAscendingCostOverPriorityRatio) {
  EXPECT_EQ(execution_order(
                {
                    item(0, 8.0, kNoDeadline, 1.0),   // ratio 8
                    item(1, 8.0, kNoDeadline, 4.0),   // ratio 2
                    item(2, 1.0, kNoDeadline, 1.0),   // ratio 1
                    item(3, 4.0, kNoDeadline, 2.0),   // ratio 2: ties 1, index breaks
                    item(4, 2.0, kNoDeadline, 0.25),  // ratio 8: ties 0, index breaks
                },
                SchedulePolicy::kPriority),
            (Order{2, 1, 3, 0, 4}));
}

TEST(WorkQueue, SrptPopsByAscendingCostWithIndexTiebreak) {
  EXPECT_EQ(execution_order({item(0, 9.0), item(1, 1.0), item(2, 100.0),
                             item(3, 1.0),  // ties 1: index breaks it
                             item(4, 0.5)},
                            SchedulePolicy::kSrpt),
            (Order{4, 1, 3, 0, 2}));
}

TEST(WorkQueue, PushRejectsUnusableItems) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const WorkItem& bad : {
           item(1, -1.0),                 // cost < 0
           item(1, inf),                  // cost inf
           item(1, nan),                  // cost NaN
           item(1, 1.0, nan),             // deadline NaN
           item(1, 1.0, 0.0),             // deadline 0
           item(1, 1.0, -2.0),            // deadline < 0
           item(1, 1.0, 1.0, 0.0),        // prio 0
           item(1, 1.0, 1.0, -1.0),       // prio < 0
           item(1, 1.0, 1.0, inf),        // prio inf
           item(1, 1.0, 1.0, nan),        // prio NaN
       }) {
    // One bad item rejects the whole batch.
    EXPECT_THROW(execution_order({item(0, 1.0), bad}, SchedulePolicy::kEdf),
                 InvalidArgument);
  }
  // kNoDeadline (+inf) is the explicit "no deadline" value, not misuse.
  EXPECT_EQ(execution_order({item(0, 1.0, kNoDeadline)}, SchedulePolicy::kEdf),
            (Order{0}));
}

TEST(ResultMemo, Fnv1a64ReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(thermo::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(thermo::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(thermo::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ResultMemo, FindInsertAndStats) {
  ResultMemo memo;
  EXPECT_EQ(memo.find("k1"), std::nullopt);
  memo.insert("k1", "record-1");
  EXPECT_EQ(memo.find("k1"), "record-1");
  EXPECT_EQ(memo.find("k2"), std::nullopt);
  EXPECT_EQ(memo.find("k1"), "record-1");  // a hit does not consume it
}

TEST(ResultMemo, FirstInsertWinsOnIdenticalDuplicate) {
  // Racing duplicate executions of one key produce identical bytes
  // (records are pure functions of their keys); the memo keeps the
  // first copy and the duplicate takes no second slot.
  ResultMemo memo(2);
  memo.insert("k", "record");
  memo.insert("k", "record");
  memo.insert("other", "record-2");
  EXPECT_EQ(memo.find("k"), "record");  // still resident at capacity 2
  EXPECT_EQ(memo.find("other"), "record-2");
}

TEST(ResultMemo, DivergentDuplicateInsertThrows) {
  // A duplicate insert carrying DIFFERENT bytes means a writer broke
  // the pure-function-of-the-key premise; silently keeping either copy
  // would let the cache serve one of two different answers, so the
  // memo fails loudly instead.
  ResultMemo memo;
  memo.insert("k", "first");
  EXPECT_THROW(memo.insert("k", "second"), LogicError);
  EXPECT_EQ(memo.find("k"), "first");  // the resident record is untouched
}

TEST(ResultMemo, ConcurrentHammerKeepsCountersConsistent) {
  // Consistency under contention: every operation is serialized on one
  // mutex, so however the threads interleave, every served record is
  // its key's value and the memo ends exactly full (more distinct keys
  // than capacity were inserted, and each eviction makes room for one).
  // The small capacity forces eviction/insert races on hot keys.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 2000;
  constexpr std::size_t kKeySpace = 64;
  constexpr std::size_t kCapacity = 16;
  const auto value_of = [](std::size_t k) {
    return "record-" + std::to_string(k);
  };
  ResultMemo memo(kCapacity);
  std::atomic<std::size_t> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t state = t + 1;
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t k = state % kKeySpace;
        const std::string key = "key-" + std::to_string(k);
        const auto found = memo.find(key);
        if (found) {
          hits.fetch_add(1, std::memory_order_relaxed);
          // Every served record must be the key's one true value —
          // an insert/evict race may lose entries, never corrupt them.
          ASSERT_EQ(*found, value_of(k));
        } else {
          memo.insert(key, value_of(k));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::size_t resident = 0;
  for (std::size_t k = 0; k < kKeySpace; ++k) {
    const auto found = memo.find("key-" + std::to_string(k));
    if (found) {
      EXPECT_EQ(*found, value_of(k));
      ++resident;
    }
  }
  EXPECT_EQ(resident, kCapacity);  // capacity < keyspace forces churn
  EXPECT_GT(hits.load(), 0u);
}

TEST(ResultMemo, LruEvictionAtCapacity) {
  ResultMemo memo(2);
  memo.insert("a", "ra");
  memo.insert("b", "rb");
  EXPECT_EQ(memo.find("a"), "ra");  // refresh a, making b the LRU victim
  memo.insert("c", "rc");
  EXPECT_EQ(memo.find("b"), std::nullopt);  // evicted
  EXPECT_EQ(memo.find("a"), "ra");
  EXPECT_EQ(memo.find("c"), "rc");
}

TEST(OrderedWriter, StreamsInOrderRegardlessOfPushOrder) {
  std::ostringstream out;
  std::vector<std::size_t> observed;
  OrderedWriter writer(out, 4, [&](std::size_t index, const std::string&) {
    observed.push_back(index);
  });
  writer.push(2, "r2");
  EXPECT_EQ(out.str(), "");  // 0 not written yet: nothing may stream
  writer.push(0, "r0");
  EXPECT_EQ(out.str(), "r0\n");  // 1 still missing, 2 stays buffered
  writer.push(1, "r1");
  EXPECT_EQ(out.str(), "r0\nr1\nr2\n");  // 1 unblocked 2 as well
  writer.push(3, "r3");
  writer.finish();
  EXPECT_EQ(out.str(), "r0\nr1\nr2\nr3\n");
  EXPECT_EQ(writer.written(), 4u);
  EXPECT_EQ(writer.max_buffered(), 1u);
  EXPECT_EQ(observed, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(OrderedWriter, GuardsAgainstMisuse) {
  std::ostringstream out;
  OrderedWriter writer(out, 2);
  writer.push(0, "r0");
  EXPECT_THROW(writer.push(0, "again"), InvalidArgument);
  EXPECT_THROW(writer.push(2, "range"), InvalidArgument);
  EXPECT_THROW(writer.finish(), LogicError);  // index 1 never arrived
}

/// A batch whose records are pure functions of the key content: job i
/// computes "v:<payload>". Payloads repeat to exercise dedup.
struct FakeBatch {
  std::vector<std::string> payloads;

  std::vector<Job> jobs(bool keyed = true) const {
    std::vector<Job> out(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      if (keyed) out[i].memo_key = payloads[i];
      out[i].cost = static_cast<double>(payloads[i].size());
      // Deterministic SLO spread so edf/priority actually reorder:
      // every third job carries a deadline, priorities cycle 1..4.
      if (i % 3 == 0) out[i].deadline = 1.0 + static_cast<double>(i % 5);
      out[i].priority = 1.0 + static_cast<double>(i % 4);
    }
    return out;
  }

  std::string run(const EngineOptions& options, EngineStats* stats_out = nullptr,
                  std::atomic<std::size_t>* executions = nullptr) const {
    std::ostringstream out;
    OrderedWriter writer(out, payloads.size());
    const EngineStats stats = run_batch(
        this->jobs(),
        [&](std::size_t i) {
          if (executions != nullptr) executions->fetch_add(1);
          return "v:" + payloads[i];
        },
        writer, options);
    if (stats_out != nullptr) *stats_out = stats;
    return out.str();
  }
};

TEST(Engine, OutputBytesInvariantAcrossThreadsPolicyAndDedup) {
  // append() instead of `"p" + std::to_string(...)` / `"v:" + p + "\n"`:
  // those operator+ chains trip the GCC 12 -Wrestrict false positive
  // (PR105651) under heavy inlining.
  FakeBatch batch;
  for (int i = 0; i < 40; ++i) {
    std::string payload("p");
    payload.append(std::to_string(i % 17));  // duplicates
    batch.payloads.push_back(std::move(payload));
  }
  std::string expected;
  for (const std::string& p : batch.payloads) {
    expected.append("v:").append(p).push_back('\n');
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const SchedulePolicy policy :
         {SchedulePolicy::kFifo, SchedulePolicy::kLjf, SchedulePolicy::kEdf,
          SchedulePolicy::kPriority, SchedulePolicy::kSrpt}) {
      for (const bool dedup : {true, false}) {
        EngineOptions options;
        options.threads = threads;
        options.policy = policy;
        options.dedup = dedup;
        EXPECT_EQ(batch.run(options), expected)
            << "threads=" << threads << " policy="
            << schedule_policy_name(policy) << " dedup=" << dedup;
      }
    }
  }
}

TEST(Engine, DedupExecutesEachDistinctKeyOnce) {
  FakeBatch batch;
  batch.payloads = {"a", "b", "a", "c", "b", "a"};
  EngineOptions options;
  options.threads = 1;
  EngineStats stats;
  std::atomic<std::size_t> executions{0};
  batch.run(options, &stats, &executions);
  EXPECT_EQ(executions.load(), 3u);  // a, b, c
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.memo_hits, 3u);  // the three within-batch duplicates
  EXPECT_FALSE(stats.timings[0].memo_hit);
  EXPECT_TRUE(stats.timings[2].memo_hit);
  EXPECT_TRUE(stats.timings[4].memo_hit);
  EXPECT_TRUE(stats.timings[5].memo_hit);
}

TEST(Engine, DedupOffExecutesEverything) {
  FakeBatch batch;
  batch.payloads = {"a", "a", "a"};
  EngineOptions options;
  options.threads = 2;
  options.dedup = false;
  EngineStats stats;
  std::atomic<std::size_t> executions{0};
  batch.run(options, &stats, &executions);
  EXPECT_EQ(executions.load(), 3u);
  EXPECT_EQ(stats.memo_hits, 0u);
}

TEST(Engine, SharedMemoDedupsAcrossBatches) {
  FakeBatch batch;
  batch.payloads = {"x", "y", "z", "x"};
  ResultMemo memo;
  EngineOptions options;
  options.threads = 2;
  options.memo = &memo;

  EngineStats first;
  std::atomic<std::size_t> executions{0};
  const std::string out_first = batch.run(options, &first, &executions);
  EXPECT_EQ(executions.load(), 3u);
  EXPECT_EQ(first.memo_hits, 1u);  // the within-batch duplicate "x"

  // Identical batch again: everything is answered from the memo.
  EngineStats second;
  const std::string out_second = batch.run(options, &second, &executions);
  EXPECT_EQ(executions.load(), 3u);  // nothing new ran
  EXPECT_EQ(second.memo_hits, 4u);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(out_second, out_first);
}

TEST(Engine, KeylessJobsAlwaysExecuteAndNeverEnterTheMemo) {
  ResultMemo memo;
  std::atomic<std::size_t> executions{0};
  const auto run_once = [&] {
    std::ostringstream out;
    OrderedWriter writer(out, 2);
    EngineOptions options;
    options.threads = 1;
    options.memo = &memo;
    std::vector<Job> jobs(2);  // both keyless
    run_batch(
        jobs,
        [&](std::size_t i) {
          executions.fetch_add(1);
          return "r" + std::to_string(i);
        },
        writer, options);
    return out.str();
  };
  EXPECT_EQ(run_once(), "r0\nr1\n");
  EXPECT_EQ(run_once(), "r0\nr1\n");
  EXPECT_EQ(executions.load(), 4u);
  EXPECT_EQ(memo.find(""), std::nullopt);  // the keyless jobs' empty key
}

TEST(Engine, TimingsAndMakespanArePopulated) {
  FakeBatch batch;
  batch.payloads = {"a", "b", "c"};
  EngineOptions options;
  options.threads = 2;
  EngineStats stats;
  batch.run(options, &stats);
  ASSERT_EQ(stats.timings.size(), 3u);
  EXPECT_GE(stats.makespan_seconds, 0.0);
  for (const JobTiming& timing : stats.timings) {
    EXPECT_GE(timing.wall_seconds, 0.0);
    EXPECT_GE(timing.cpu_seconds, 0.0);
    // Completion offsets share the makespan's execution-window origin,
    // so no job can complete after the window closes.
    EXPECT_GE(timing.done_seconds, 0.0);
    EXPECT_LE(timing.done_seconds, stats.makespan_seconds);
  }
}

TEST(Engine, ReportsTheWriterHighWaterMark) {
  // 1 thread + ljf + ascending costs: execution order is exactly the
  // reverse of input order, so records 2 and 1 must buffer until 0
  // lands — a deterministic out-of-order completion.
  FakeBatch batch;
  batch.payloads = {"a", "bb", "ccc"};  // cost = length
  EngineOptions options;
  options.threads = 1;
  options.policy = SchedulePolicy::kLjf;
  EngineStats stats;
  batch.run(options, &stats);
  EXPECT_EQ(stats.max_buffered, 2u);

  // Fifo on 1 thread completes in input order: nothing ever buffers.
  options.policy = SchedulePolicy::kFifo;
  batch.run(options, &stats);
  EXPECT_EQ(stats.max_buffered, 0u);
}

TEST(Engine, ExecuteExceptionPropagates) {
  std::ostringstream out;
  OrderedWriter writer(out, 2);
  std::vector<Job> jobs(2);
  EngineOptions options;
  options.threads = 2;
  EXPECT_THROW(
      run_batch(
          jobs,
          [&](std::size_t i) -> std::string {
            if (i == 1) throw NumericalError("solver blew up");
            return "ok";
          },
          writer, options),
      NumericalError);
}

TEST(Engine, EmptyBatchIsANoOp) {
  std::ostringstream out;
  OrderedWriter writer(out, 0);
  const EngineStats stats = run_batch(
      {}, [](std::size_t) { return std::string{}; }, writer);
  EXPECT_TRUE(stats.timings.empty());
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(out.str(), "");
}

}  // namespace
}  // namespace thermo::dispatch
