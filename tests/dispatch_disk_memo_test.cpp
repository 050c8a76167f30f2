// DiskResultMemo: the two-tier (memory LRU over crash-safe segment
// store) result memo behind `thermosched serve --cache-dir`. Covered
// here: tier ordering and promotion, durable write-through, cold-process
// inheritance, schema-revision invalidation, engine integration through
// the polymorphic ResultMemo*, and I/O failure propagation.
#include "dispatch/disk_result_memo.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dispatch/engine.hpp"
#include "dispatch/ordered_writer.hpp"
#include "obs/metrics.hpp"
#include "oracles/fault_fs.hpp"
#include "persist_test_util.hpp"

namespace thermo::dispatch {
namespace {

using testing::record_key;
using testing::record_payload;
using testing::ScopedTempDir;

TEST(DiskResultMemo, MemoryTierAnswersBeforeDisk) {
  const ScopedTempDir dir("diskmemo");
  DiskResultMemo memo(dir.path());
  memo.insert("k", "record");
  const obs::Counter& store_hits =
      obs::MetricsRegistry::instance().counter("persist.get_hits");
  const std::uint64_t store_hits_before = store_hits.value();
  EXPECT_EQ(memo.find("k"), "record");
  EXPECT_EQ(memo.disk_hits(), 0u);  // resident in memory, disk untouched
  EXPECT_EQ(store_hits.value(), store_hits_before);
}

TEST(DiskResultMemo, ColdProcessInheritsEveryRecordFromDisk) {
  const ScopedTempDir dir("diskmemo");
  {
    DiskResultMemo memo(dir.path());
    for (std::size_t i = 0; i < 20; ++i) {
      memo.insert(record_key(i), record_payload(i));
    }
  }
  // A fresh object over the same directory models a restarted process:
  // empty memory tier, warm disk tier.
  DiskResultMemo cold(dir.path());
  for (std::size_t i = 0; i < 20; ++i) {
    const auto value = cold.find(record_key(i));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, record_payload(i));
  }
  EXPECT_EQ(cold.disk_hits(), 20u);
  // Promotion: the second pass is answered from memory.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(cold.find(record_key(i)), record_payload(i));
  }
  EXPECT_EQ(cold.disk_hits(), 20u);  // unchanged
}

TEST(DiskResultMemo, InsertIsDurableBeforeItReturns) {
  const ScopedTempDir dir("diskmemo");
  DiskResultMemo memo(dir.path());
  memo.insert("k", "record");
  // Default store mode is fsync-per-record: the bytes are on disk the
  // moment insert() returns, not at close.
  EXPECT_EQ(memo.store().stats().appends, 1u);
  EXPECT_EQ(memo.store().stats().records, 1u);
  std::ifstream segment(dir.path() + "/" +
                            persist::SegmentStore::segment_name(1),
                        std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(segment)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("record"), std::string::npos);
}

TEST(DiskResultMemo, MemoryEvictionDoesNotLoseDurableRecords) {
  const ScopedTempDir dir("diskmemo");
  DiskResultMemo::Options options;
  options.memory_capacity = 4;  // far smaller than the record count
  DiskResultMemo memo(dir.path(), options);
  for (std::size_t i = 0; i < 32; ++i) {
    memo.insert(record_key(i), record_payload(i));
  }
  // Most records were evicted from memory; all must come back from disk.
  for (std::size_t i = 0; i < 32; ++i) {
    const auto value = memo.find(record_key(i));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, record_payload(i));
  }
  EXPECT_GT(memo.disk_hits(), 0u);
}

TEST(DiskResultMemo, SchemaRevisionBumpInvalidatesTheCache) {
  const ScopedTempDir dir("diskmemo");
  {
    // An older process wrote records under a different payload schema.
    persist::StoreOptions stale;
    stale.schema_revision = kResultSchemaRevision + 1;
    persist::SegmentStore store(dir.path(), stale);
    store.put("k", "stale-format record");
  }
  DiskResultMemo memo(dir.path());
  EXPECT_TRUE(memo.store().stats().wiped_on_open);
  EXPECT_EQ(memo.find("k"), std::nullopt);  // never served across formats
  memo.insert("k", "fresh record");
  EXPECT_EQ(memo.find("k"), "fresh record");
}

TEST(DiskResultMemo, EngineServesAWholeBatchFromDiskAfterRestart) {
  // End-to-end through run_batch's ResultMemo*: first process executes
  // and persists; the restarted process answers every job from the memo
  // (zero executions) with byte-identical output.
  const ScopedTempDir dir("diskmemo");
  const std::size_t n = 24;
  const auto execute = [](std::size_t j) {
    return "result-" + std::to_string(j);  // 8 distinct records
  };
  std::vector<Job> jobs(8);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].memo_key = "job-" + std::to_string(j);
    jobs[j].cost = 1.0;
  }
  std::vector<std::size_t> job_of_line(n);
  for (std::size_t i = 0; i < n; ++i) job_of_line[i] = i % 8;

  std::string first_output;
  {
    DiskResultMemo memo(dir.path());
    std::ostringstream out;
    OrderedWriter writer(out, n);
    EngineOptions options;
    options.threads = 3;
    options.memo = &memo;
    const EngineStats stats =
        run_batch(jobs, job_of_line, execute, writer, options);
    EXPECT_EQ(stats.executed, 8u);
    first_output = out.str();
  }
  {
    DiskResultMemo memo(dir.path());  // cold restart
    std::ostringstream out;
    OrderedWriter writer(out, n);
    EngineOptions options;
    options.threads = 3;
    options.memo = &memo;
    const EngineStats stats =
        run_batch(jobs, job_of_line, execute, writer, options);
    EXPECT_EQ(stats.executed, 0u);  // everything answered from the cache
    for (const JobTiming& timing : stats.timings) EXPECT_TRUE(timing.memo_hit);
    EXPECT_EQ(out.str(), first_output);  // byte-identical
    EXPECT_EQ(memo.disk_hits(), 8u);
  }
}

TEST(DiskResultMemo, AppendFailurePropagatesAndNothingIsCached) {
  // Learn which op indices make up the first insert (segment creation,
  // header append, frame append, fsync), then fail each one in turn:
  // every variant must surface IoError, acknowledge nothing, and leave
  // the memo usable.
  std::size_t insert_ops_begin = 0;
  std::size_t insert_ops_end = 0;
  {
    const ScopedTempDir discover("diskmemo-discover");
    persist::FaultFs fs(persist::real_fs());
    DiskResultMemo::Options options;
    options.store.fs = &fs;
    DiskResultMemo memo(discover.path(), options);
    insert_ops_begin = fs.ops_seen();
    memo.insert("k", "record");
    insert_ops_end = fs.ops_seen();
  }
  ASSERT_GT(insert_ops_end, insert_ops_begin);

  for (std::size_t op = insert_ops_begin; op < insert_ops_end; ++op) {
    SCOPED_TRACE("transient failure at op " + std::to_string(op));
    const ScopedTempDir dir("diskmemo-fail");
    persist::FaultPlan plan;
    plan.after_ops = op;
    plan.kind = persist::FaultKind::kFailOp;
    persist::FaultFs fs(persist::real_fs(), plan);
    DiskResultMemo::Options options;
    options.store.fs = &fs;
    DiskResultMemo memo(dir.path(), options);
    EXPECT_THROW(memo.insert("k", "record"), persist::IoError);
    // The record was not acknowledged, so neither tier may serve it.
    EXPECT_EQ(memo.find("k"), std::nullopt);
    // The memo stays usable: the store abandoned the damaged segment
    // and the next insert lands in a fresh one.
    memo.insert("k2", "record-2");
    EXPECT_EQ(memo.find("k2"), "record-2");
  }
}

}  // namespace
}  // namespace thermo::dispatch
