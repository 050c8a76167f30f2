// DiskResultMemo: the two-tier (memory LRU over crash-safe segment
// store) result memo behind `thermosched serve --cache-dir`. Covered
// here: tier ordering and promotion, durable write-through, cold-process
// inheritance, schema-revision invalidation, batch lookups (find_all)
// against a find() loop, engine integration through the polymorphic
// ResultMemo*, and I/O failure propagation.
#include "dispatch/disk_result_memo.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
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

/// What one lookup pass did to a memo: the records, and how much the
/// disk tier and the store counted while it ran.
struct LookupPass {
  std::vector<std::optional<std::string>> records;
  std::size_t disk_hits = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;
  bool operator==(const LookupPass&) const = default;
  friend void PrintTo(const LookupPass& pass, std::ostream* os) {
    *os << "{disk_hits " << pass.disk_hits << ", get_hits " << pass.get_hits
        << ", get_misses " << pass.get_misses << ", records";
    for (const std::optional<std::string>& record : pass.records) {
      *os << ' ' << (record ? std::to_string(record->size()) + "B" : "-");
    }
    *os << '}';
  }
};

template <typename Lookup>
LookupPass measure(DiskResultMemo& memo, Lookup lookup) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  const obs::Counter& hits = registry.counter("persist.get_hits");
  const obs::Counter& misses = registry.counter("persist.get_misses");
  const std::size_t disk_before = memo.disk_hits();
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  LookupPass pass;
  pass.records = lookup();
  pass.disk_hits = memo.disk_hits() - disk_before;
  pass.get_hits = hits.value() - hits_before;
  pass.get_misses = misses.value() - misses_before;
  return pass;
}

TEST(DiskResultMemo, FindAllMatchesSerialFinds) {
  // Twelve stored records; four are made resident before the lookups,
  // the last one's frame is truncated under the open store (a read that
  // overruns: a transient miss), two keys were never stored, and one key
  // repeats. find_all over them must equal a find() loop on a twin memo:
  // records, disk hits and store gets, and, through a later probe of
  // every key, the memory tier's recency order.
  constexpr std::size_t kStored = 12;
  const ScopedTempDir source("diskmemo-source");
  {
    DiskResultMemo memo(source.path());
    for (std::size_t i = 0; i < kStored; ++i) {
      memo.insert(record_key(i), record_payload(i));
    }
  }
  const std::vector<std::size_t> warm = {2, 0, 1, 3};
  std::vector<std::string> texts;
  for (const std::size_t i : {3, 0, 7, 11, 1, 5, 9, 2, 10, 4, 8, 6}) {
    texts.push_back(record_key(i));
    if (i == 7) texts.push_back("absent-a");
    if (i == 9) texts.push_back("absent-b");
    if (i == 4) texts.push_back(record_key(3));
  }
  const std::vector<std::string_view> keys(texts.begin(), texts.end());
  const std::size_t distinct = kStored + 2;

  for (const std::size_t capacity : {std::size_t{1}, std::size_t{4}, distinct}) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE("memory_capacity " + std::to_string(capacity) +
                   ", threads " + std::to_string(threads));
      const ScopedTempDir serial_dir("diskmemo-serial");
      const ScopedTempDir batch_dir("diskmemo-batch");
      DiskResultMemo::Options options;
      options.memory_capacity = capacity;
      std::vector<std::unique_ptr<DiskResultMemo>> memos;
      for (const ScopedTempDir* dir : {&serial_dir, &batch_dir}) {
        std::filesystem::copy(source.path(), dir->path(),
                              std::filesystem::copy_options::recursive);
        memos.push_back(std::make_unique<DiskResultMemo>(dir->path(), options));
        for (const std::size_t i : warm) memos.back()->find(record_key(i));
        const std::string segment =
            dir->path() + "/" + persist::SegmentStore::segment_name(1);
        std::filesystem::resize_file(
            segment, std::filesystem::file_size(segment) - 3);
      }
      DiskResultMemo& serial = *memos[0];
      DiskResultMemo& batch = *memos[1];

      const LookupPass expected = measure(serial, [&] {
        std::vector<std::optional<std::string>> records;
        for (const std::string_view key : keys) records.push_back(serial.find(key));
        return records;
      });
      const LookupPass actual =
          measure(batch, [&] { return batch.find_all(keys, threads); });
      EXPECT_EQ(actual, expected);
      ASSERT_EQ(actual.records.size(), keys.size());
      EXPECT_EQ(actual.records[0], record_payload(3));
      EXPECT_EQ(actual.records[3], std::nullopt);  // absent-a
      EXPECT_EQ(actual.records[4], std::nullopt);  // the truncated frame
      EXPECT_GT(actual.disk_hits, 0u);

      // Each probe is a memory hit or a disk read depending on what the
      // lookups left resident, and in what order it is evicted.
      for (std::size_t i = kStored; i-- > 0;) {
        SCOPED_TRACE("probe " + record_key(i));
        const auto probe = [&](DiskResultMemo& memo) {
          return measure(memo, [&] {
            return std::vector<std::optional<std::string>>{
                memo.find(record_key(i))};
          });
        };
        EXPECT_EQ(probe(batch), probe(serial));
      }
    }
  }
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
