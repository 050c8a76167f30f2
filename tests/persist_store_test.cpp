// SegmentStore in isolation: round-trips (binary-safe), first-put-wins,
// rotation, reopen-by-scan, schema policies, verify, compaction,
// read-time checksum re-verification, and concurrent gets beside a
// writer; plus the real filesystem's range-read errors. Crash points and deliberate
// corruption have their own suites (persist_crash_test,
// persist_corruption_test).
#include "persist/segment_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "persist_test_util.hpp"
#include "util/error.hpp"

namespace thermo::persist {
namespace {

using testing::record_key;
using testing::record_payload;
using testing::ScopedTempDir;

TEST(SegmentStore, PutGetRoundTripsBinaryPayloads) {
  const ScopedTempDir dir("segstore");
  SegmentStore store(dir.path());
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(store.put(record_key(i), record_payload(i)));
  }
  for (std::size_t i = 0; i < 32; ++i) {
    const auto value = store.get(record_key(i));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, record_payload(i));  // byte-exact, NULs included
  }
  EXPECT_EQ(store.get("absent"), std::nullopt);
  const auto stats = store.stats();
  EXPECT_EQ(stats.records, 32u);
  EXPECT_EQ(stats.appends, 32u);
}

TEST(SegmentStore, FirstPutWinsAndDuplicatesNeverTouchDisk) {
  const ScopedTempDir dir("segstore");
  SegmentStore store(dir.path());
  EXPECT_TRUE(store.put("k", "value"));
  const std::uint64_t bytes_after_first = store.stats().disk_bytes;
  EXPECT_FALSE(store.put("k", "value"));
  EXPECT_EQ(store.stats().disk_bytes, bytes_after_first);
  EXPECT_EQ(store.stats().appends, 1u);
  EXPECT_EQ(store.get("k"), "value");
}

TEST(SegmentStore, RejectsEmptyKeys) {
  const ScopedTempDir dir("segstore");
  SegmentStore store(dir.path());
  EXPECT_THROW(store.put("", "value"), InvalidArgument);
}

TEST(SegmentStore, ReopenRebuildsTheIndexByScan) {
  const ScopedTempDir dir("segstore");
  {
    SegmentStore store(dir.path());
    for (std::size_t i = 0; i < 20; ++i) {
      store.put(record_key(i), record_payload(i));
    }
  }
  SegmentStore reopened(dir.path());
  EXPECT_EQ(reopened.stats().records, 20u);
  EXPECT_EQ(reopened.stats().damaged_at_open, 0u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(reopened.get(record_key(i)), record_payload(i));
  }
}

TEST(SegmentStore, RotatesAtTheSizeCapAndScansAllSegments) {
  const ScopedTempDir dir("segstore");
  StoreOptions options;
  options.segment_size_cap = 512;  // a handful of records per segment
  {
    SegmentStore store(dir.path(), options);
    for (std::size_t i = 0; i < 40; ++i) {
      store.put(record_key(i), record_payload(i, 64));
    }
    EXPECT_GT(store.stats().segments, 3u);
  }
  SegmentStore reopened(dir.path(), options);
  EXPECT_EQ(reopened.stats().records, 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(reopened.get(record_key(i)), record_payload(i, 64));
  }
}

TEST(SegmentStore, EachWriterSessionGetsAFreshSegment) {
  // The store must never append to a segment it did not create in this
  // session — a torn tail from a crashed writer would swallow every
  // record appended after it. So: reopen + put => a new segment file.
  const ScopedTempDir dir("segstore");
  {
    SegmentStore store(dir.path());
    store.put("a", "1");
  }
  {
    SegmentStore store(dir.path());
    EXPECT_EQ(store.stats().segments, 1u);
    store.put("b", "2");
    EXPECT_EQ(store.stats().segments, 2u);
  }
  SegmentStore reopened(dir.path());
  EXPECT_EQ(reopened.get("a"), "1");
  EXPECT_EQ(reopened.get("b"), "2");
}

TEST(SegmentStore, CreateIfMissingFalseRefusesAMissingDirectory) {
  const ScopedTempDir dir("segstore");
  StoreOptions options;
  options.create_if_missing = false;
  EXPECT_THROW(SegmentStore(dir.path(), options), IoError);
  // And it must not have created the directory as a side effect.
  EXPECT_FALSE(std::filesystem::exists(dir.path()));
}

TEST(SegmentStore, SchemaMismatchWipesUnderWipePolicy) {
  const ScopedTempDir dir("segstore");
  {
    StoreOptions options;
    options.schema_revision = 1;
    SegmentStore store(dir.path(), options);
    store.put("old", "record");
  }
  StoreOptions bumped;
  bumped.schema_revision = 2;
  SegmentStore store(dir.path(), bumped);
  EXPECT_TRUE(store.stats().wiped_on_open);
  EXPECT_EQ(store.stats().records, 0u);
  EXPECT_EQ(store.get("old"), std::nullopt);
  // The wiped store is fully usable at the new revision.
  EXPECT_TRUE(store.put("new", "record"));
  EXPECT_EQ(store.get("new"), "record");
}

TEST(SegmentStore, SchemaMismatchThrowsUnderFailPolicyWithoutDestroying) {
  const ScopedTempDir dir("segstore");
  {
    StoreOptions options;
    options.schema_revision = 1;
    SegmentStore store(dir.path(), options);
    store.put("old", "record");
  }
  StoreOptions bumped;
  bumped.schema_revision = 2;
  bumped.schema_policy = SchemaPolicy::kFailOnMismatch;
  EXPECT_THROW(SegmentStore(dir.path(), bumped), Error);
  // The refusal must leave the data intact for the matching revision.
  StoreOptions original;
  original.schema_revision = 1;
  SegmentStore store(dir.path(), original);
  EXPECT_EQ(store.get("old"), "record");
}

TEST(SegmentStore, VerifyIsCleanOnAHealthyStore) {
  const ScopedTempDir dir("segstore");
  StoreOptions options;
  options.segment_size_cap = 512;
  SegmentStore store(dir.path(), options);
  for (std::size_t i = 0; i < 25; ++i) {
    store.put(record_key(i), record_payload(i, 64));
  }
  const auto report = store.verify();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.valid_records, 25u);
  EXPECT_EQ(report.segments, store.stats().segments);
}

TEST(SegmentStore, CompactMergesSegmentsAndPreservesEveryRecord) {
  const ScopedTempDir dir("segstore");
  StoreOptions options;
  options.segment_size_cap = 512;
  std::map<std::string, std::string> expected;
  {
    SegmentStore store(dir.path(), options);
    for (std::size_t i = 0; i < 30; ++i) {
      expected[record_key(i)] = record_payload(i, 64);
      store.put(record_key(i), expected[record_key(i)]);
    }
    EXPECT_GT(store.stats().segments, 2u);
    const std::size_t carried = store.compact();
    EXPECT_EQ(carried, 30u);
    EXPECT_EQ(store.stats().segments, 1u);
    // The live store keeps answering from the compacted segment.
    for (const auto& [key, value] : expected) {
      EXPECT_EQ(store.get(key), value);
    }
    // And it can keep appending after compaction.
    EXPECT_TRUE(store.put("post-compact", "value"));
  }
  SegmentStore reopened(dir.path(), options);
  EXPECT_EQ(reopened.stats().records, 31u);
  EXPECT_TRUE(reopened.verify().clean());
  for (const auto& [key, value] : expected) {
    EXPECT_EQ(reopened.get(key), value);
  }
  EXPECT_EQ(reopened.get("post-compact"), "value");
}

TEST(SegmentStore, CompactScrubsCrashDebris) {
  // A leftover compact.tmp (crashed compaction, pre-rename) must be
  // removed at open, never mistaken for a segment.
  const ScopedTempDir dir("segstore");
  {
    SegmentStore store(dir.path());
    store.put("k", "v");
  }
  const std::string tmp = dir.path() + "/compact.tmp";
  std::ofstream(tmp, std::ios::binary) << "half-written garbage";
  SegmentStore store(dir.path());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_EQ(store.get("k"), "v");
  EXPECT_EQ(store.stats().damaged_at_open, 0u);
}

TEST(SegmentStore, GetReverifiesChecksumsAndDegradesToAMiss) {
  // Corruption that lands AFTER open (the scan saw healthy bytes) is
  // caught by get()'s re-verification: the record degrades to a miss
  // and is dropped from the index — wrong bytes are never served.
  const ScopedTempDir dir("segstore");
  SegmentStore store(dir.path());
  const std::string value(64, 'x');
  store.put("victim", value);
  store.put("witness", "intact");

  // Flip one byte of the victim's value region on disk, under the
  // store's feet. Frame layout: 20-byte segment header, then
  // [8 length bytes]["victim"][value...] — offset 40 is inside value.
  const std::string path = dir.path() + "/" + SegmentStore::segment_name(1);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(40);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(40);
    file.write(&byte, 1);
  }

  EXPECT_EQ(store.stats().records, 2u);
  EXPECT_EQ(store.get("victim"), std::nullopt);
  EXPECT_EQ(store.stats().records, 1u);  // dropped from the index
  EXPECT_EQ(store.get("victim"), std::nullopt);  // plain miss now
  EXPECT_EQ(store.get("witness"), "intact");
}

TEST(SegmentStore, ConcurrentGetsAndPuts) {
  // Four readers get under the shared lock while a writer appends and
  // rotates segments under the exclusive one. Every reader meets the
  // one corrupt frame first; it is a miss for all of them and leaves the
  // index exactly once.
  constexpr std::size_t kStored = 64;
  constexpr std::size_t kWritten = 48;
  constexpr std::size_t kReaders = 4;
  const ScopedTempDir dir("segstore");
  StoreOptions options;
  options.segment_size_cap = 2048;  // the writer rotates several times
  SegmentStore store(dir.path(), options);
  store.put("victim", std::string(64, 'x'));  // offset 40 is in its value
  for (std::size_t i = 0; i < kStored; ++i) {
    store.put(record_key(i), record_payload(i));
  }
  const std::string path = dir.path() + "/" + SegmentStore::segment_name(1);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(40);
    file.put('y');
  }

  std::vector<std::size_t> wrong(kReaders, 0);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      if (store.get("victim").has_value()) ++wrong[r];
      for (int pass = 0; pass < 4; ++pass) {
        for (std::size_t i = 0; i < kStored; ++i) {
          if (store.get(record_key(i)) != record_payload(i)) ++wrong[r];
        }
        for (std::size_t i = 0; i < kWritten; ++i) {
          // Present or not yet written; never other bytes.
          const std::optional<std::string> value =
              store.get(record_key(kStored + i));
          if (value && *value != record_payload(kStored + i)) ++wrong[r];
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < kWritten; ++i) {
      store.put(record_key(kStored + i), record_payload(kStored + i));
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong, std::vector<std::size_t>(kReaders, 0));
  EXPECT_GT(store.stats().segments, 2u);
  EXPECT_EQ(store.stats().records, kStored + kWritten);  // victim dropped once
  EXPECT_EQ(store.get("victim"), std::nullopt);
  for (std::size_t i = 0; i < kStored + kWritten; ++i) {
    EXPECT_EQ(store.get(record_key(i)), record_payload(i));
  }
}

TEST(RealFs, ReadRangeOfAMissingFileCannotRead) {
  const ScopedTempDir dir("realfs");
  const std::string path = dir.path() + "/absent.log";
  try {
    real_fs().read_range(path, 0, 4);
    FAIL() << "read_range of a missing file returned";
  } catch (const IoError& error) {
    EXPECT_EQ(std::string(error.what()), "cannot read '" + path + "'");
  }
}

TEST(RealFs, ReadRangePastTheEndOverruns) {
  const ScopedTempDir dir("realfs");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/ten.log";
  std::ofstream(path, std::ios::binary) << "0123456789";
  EXPECT_EQ(real_fs().read_range(path, 6, 4), "6789");  // ends at EOF
  EXPECT_EQ(real_fs().read_range(path, 10, 0), "");
  for (const auto& [offset, length] :
       std::vector<std::pair<std::uint64_t, std::size_t>>{{6, 5}, {12, 1}}) {
    try {
      real_fs().read_range(path, offset, length);
      FAIL() << "read_range past the end returned";
    } catch (const IoError& error) {
      EXPECT_EQ(std::string(error.what()),
                "range [" + std::to_string(offset) + ", +" +
                    std::to_string(length) + ") overruns '" + path + "'");
    }
  }
}

TEST(SegmentStore, ForeignFilesInTheDirectoryAreIgnored) {
  const ScopedTempDir dir("segstore");
  {
    SegmentStore store(dir.path());
    store.put("k", "v");
  }
  std::ofstream(dir.path() + "/README", std::ios::binary) << "not a segment";
  std::ofstream(dir.path() + "/seg-abc.log", std::ios::binary) << "bad name";
  SegmentStore store(dir.path());
  EXPECT_EQ(store.get("k"), "v");
  EXPECT_EQ(store.stats().damaged_at_open, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/README"));
}

}  // namespace
}  // namespace thermo::persist
