// The cross-process property behind `thermosched serve --cache-dir`:
// serve a batch with a disk-backed memo, "kill" the process (destroy
// every in-memory object), then serve the SAME batch from a cold
// process over the same cache directory. The contract:
//   * the cold run's JSONL output is byte-identical to the warm run's;
//   * the cold run executes nothing — every distinct request is
//     answered from disk (>= 99% disk-hit rate, and in fact 100%);
//   * this holds across thread counts x schedule policies, because the
//     cache keys are canonical request content, not execution order;
//   * each cold run bumps the `dispatch.disk_memo.hits` counter by
//     exactly its summary's disk_hits;
//   * with dedup off the disk cache is ignored (nothing to key by) and
//     the output bytes STILL match — caching changes when work runs,
//     never what is written;
//   * a directory left by an older build (result schema revision 1,
//     plus a cost-model calibration blob next to its segments) is wiped
//     on open, then serves, verifies and compacts like a fresh one — and
//     the stray blob is left untouched.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dispatch/disk_result_memo.hpp"
#include "obs/metrics.hpp"
#include "persist/segment_store.hpp"
#include "scenario/serve.hpp"
#include "gen_test_util.hpp"
#include "persist_test_util.hpp"

namespace thermo::scenario {
namespace {

using thermo::testing::ScopedTempDir;

constexpr std::size_t kDistinct = 24;
constexpr std::size_t kSeed = 77;

/// A batch with ~30% duplicates: every third request is repeated at the
/// tail, so within-batch dedup and the cross-process cache both get
/// exercised. 24 distinct requests, 32 lines total.
std::string duplicated_batch() {
  const std::vector<std::string> lines =
      testing::small_gen_lines(kDistinct, kSeed);
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  for (std::size_t i = 0; i < lines.size(); i += 3) input += lines[i] + "\n";
  return input;
}

struct RunOutput {
  std::string records;
  ServeSummary summary;
};

/// One "process": a fresh runner and (optionally) a fresh DiskResultMemo
/// over `cache_dir`, torn down completely before the function returns.
RunOutput serve_once(const std::string& input, const std::string& cache_dir,
                     ServeOptions options) {
  std::istringstream in(input);
  std::ostringstream out;
  ScenarioRunner runner;
  dispatch::DiskResultMemo memo(cache_dir);
  options.disk_memo = &memo;
  const ServeSummary summary = serve_stream(in, out, runner, options);
  return RunOutput{out.str(), summary};
}

TEST(ScenarioPersist, ColdProcessServesByteIdenticallyFromDisk) {
  const ScopedTempDir dir("serve-cache");
  const std::string input = duplicated_batch();
  const std::size_t total = kDistinct + (kDistinct + 2) / 3;

  // Warm process: executes every distinct request once, persists all.
  ServeOptions warm_options;
  warm_options.threads = 2;
  const RunOutput warm = serve_once(input, dir.path(), warm_options);
  ASSERT_EQ(warm.summary.requests, total);
  ASSERT_EQ(warm.summary.failed, 0u);
  EXPECT_EQ(warm.summary.executed, kDistinct);
  EXPECT_TRUE(warm.summary.disk_cache_enabled);
  EXPECT_EQ(warm.summary.disk_records, kDistinct);

  // Cold processes: every (policy x threads) config must answer the
  // whole batch from disk with byte-identical output.
  const obs::Counter& disk_hit_counter =
      obs::MetricsRegistry::instance().counter("dispatch.disk_memo.hits");
  for (const dispatch::SchedulePolicy policy :
       {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kLjf}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ServeOptions options;
      options.policy = policy;
      options.threads = threads;
      const std::uint64_t hits_before = disk_hit_counter.value();
      const RunOutput cold = serve_once(input, dir.path(), options);
      // The registry counts the same disk answers the summary reports.
      EXPECT_EQ(disk_hit_counter.value() - hits_before,
                cold.summary.disk_hits);
      EXPECT_EQ(cold.records, warm.records)
          << "policy=" << dispatch::schedule_policy_name(policy)
          << " threads=" << threads;
      EXPECT_EQ(cold.summary.executed, 0u) << "cold run recomputed a record";
      EXPECT_EQ(cold.summary.memo_hits, total);
      // Disk-hit rate over distinct keys: one disk read per key, the
      // duplicates are answered by the promoted memory tier.
      EXPECT_GE(static_cast<double>(cold.summary.disk_hits),
                0.99 * static_cast<double>(kDistinct));
      EXPECT_EQ(cold.summary.disk_hits, kDistinct);
      EXPECT_EQ(cold.summary.disk_records, kDistinct);
    }
  }

  // Dedup off: the cache is ignored (disk stats stay zero) but the
  // output bytes still match the cached runs exactly.
  ServeOptions no_dedup;
  no_dedup.dedup = false;
  no_dedup.threads = 2;
  const RunOutput executed = serve_once(input, dir.path(), no_dedup);
  EXPECT_EQ(executed.records, warm.records);
  EXPECT_EQ(executed.summary.executed, total);  // every line ran
  EXPECT_FALSE(executed.summary.disk_cache_enabled);
  EXPECT_EQ(executed.summary.disk_hits, 0u);
}

TEST(ScenarioPersist, SecondBatchExtendsTheCacheInsteadOfReplacingIt) {
  // Two different batches through the same cache directory: the second
  // serve adds its records without disturbing the first's, and a third
  // process serves EITHER batch entirely from disk.
  const ScopedTempDir dir("serve-cache");
  std::string batch_a;
  for (const std::string& line : testing::small_gen_lines(10, 5)) {
    batch_a += line + "\n";
  }
  std::string batch_b;
  for (const std::string& line : testing::small_gen_lines(10, 6)) {
    batch_b += line + "\n";
  }

  const RunOutput first = serve_once(batch_a, dir.path(), {});
  ASSERT_EQ(first.summary.failed, 0u);
  const RunOutput second = serve_once(batch_b, dir.path(), {});
  EXPECT_GE(second.summary.disk_records, first.summary.disk_records);

  const RunOutput replay_a = serve_once(batch_a, dir.path(), {});
  EXPECT_EQ(replay_a.records, first.records);
  EXPECT_EQ(replay_a.summary.executed, 0u);
  const RunOutput replay_b = serve_once(batch_b, dir.path(), {});
  EXPECT_EQ(replay_b.records, second.records);
  EXPECT_EQ(replay_b.summary.executed, 0u);
}

TEST(ScenarioPersist, EachDistinctKeyIsReadFromDiskOncePerBatch) {
  // 20 distinct requests, the stream repeated three times, over a memory
  // tier of 4: promotions during planning evict keys that later lines
  // still need, yet each distinct key is looked up, and read from disk,
  // once per batch.
  constexpr std::size_t kKeys = 20;
  const ScopedTempDir dir("serve-cache");
  std::string input;
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& line : testing::small_gen_lines(kKeys, 13)) {
      input += line + "\n";
    }
  }
  auto& registry = obs::MetricsRegistry::instance();
  const auto store_gets = [&registry] {
    return registry.counter("persist.get_hits").value() +
           registry.counter("persist.get_misses").value();
  };
  const auto serve_small = [&] {
    std::istringstream in(input);
    std::ostringstream out;
    ScenarioRunner runner;
    dispatch::DiskResultMemo::Options small;
    small.memory_capacity = 4;
    dispatch::DiskResultMemo memo(dir.path(), small);
    ServeOptions options;
    options.threads = 2;
    options.disk_memo = &memo;
    const ServeSummary summary = serve_stream(in, out, runner, options);
    return RunOutput{out.str(), summary};
  };

  std::uint64_t gets_before = store_gets();
  const RunOutput cold = serve_small();
  ASSERT_EQ(cold.summary.failed, 0u);
  EXPECT_EQ(cold.summary.executed, kKeys);
  EXPECT_EQ(cold.summary.disk_hits, 0u);
  EXPECT_EQ(store_gets() - gets_before, kKeys);

  gets_before = store_gets();
  const RunOutput warm = serve_small();
  EXPECT_EQ(warm.records, cold.records);
  EXPECT_EQ(warm.summary.executed, 0u);
  EXPECT_EQ(warm.summary.memo_hits, 3 * kKeys);
  EXPECT_EQ(warm.summary.disk_hits, kKeys);
  EXPECT_EQ(store_gets() - gets_before, kKeys);
}

TEST(ScenarioPersist, MemoLookupIsTimedOncePerBatch) {
  // `dispatch.memo_ns` times the engine's one find_all per batch: one
  // sample for a serve with a memo, none without. Timing it (or not)
  // never changes a byte.
  const ScopedTempDir dir("serve-cache");
  const std::string input = duplicated_batch();
  ServeOptions options;
  options.threads = 4;
  auto& registry = obs::MetricsRegistry::instance();
  const obs::Histogram& memo_ns = registry.histogram("dispatch.memo_ns");
  const RunOutput cold = serve_once(input, dir.path(), options);
  ASSERT_EQ(cold.summary.failed, 0u);

  registry.reset();
  const RunOutput warm = serve_once(input, dir.path(), options);
  EXPECT_EQ(memo_ns.count(), 1u);
  EXPECT_EQ(warm.summary.executed, 0u);
  EXPECT_EQ(warm.records, cold.records);

  registry.reset();
  std::istringstream in(input);
  std::ostringstream out;
  ScenarioRunner runner;
  serve_stream(in, out, runner, options);  // no memo
  EXPECT_EQ(memo_ns.count(), 0u);
  EXPECT_EQ(out.str(), cold.records);

  obs::set_enabled(false);
  const RunOutput quiet = serve_once(input, dir.path(), options);
  obs::set_enabled(true);
  EXPECT_EQ(memo_ns.count(), 0u);
  EXPECT_EQ(quiet.records, cold.records);
  EXPECT_EQ(quiet.summary.disk_hits, warm.summary.disk_hits);
}

/// The `calibration.v1` blob older builds wrote next to the segments
/// (framed "thermoblob v1 <length> <fnv1a64>\n<payload>"), verbatim.
constexpr std::string_view kOldCalibrationBlob =
    "thermoblob v1 302 6824723730206566221\n"
    R"({"schema":"thermo.calibration.v2","samples":5,"xtx":[90388901.44934753,)"
    R"(17555950670061.033,0,1780034843.1821673,17555950670061.031,)"
    R"(8214979605931155456,0,609635499184725.1,0,0,0,0,1780034843.1821675,)"
    R"(609635499184725.2,0,50333834544.36655],"xty":[19276.529164247448,)"
    R"(4710728987.412015,0,446763.51205955056]})";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ScenarioPersist, OldCacheDirWithCalibrationBlobStillWorks) {
  std::string input;
  std::vector<std::string> keys;
  for (const std::string& line : testing::small_gen_lines(8, 11)) {
    input += line + "\n";
    keys.push_back(to_json_line(parse_request_line(line)));
  }

  for (const std::uint32_t revision : {1u, 4u, 5u}) {
    SCOPED_TRACE("revision " + std::to_string(revision));
    // A directory left by an older build: stale records stored under the
    // current keys, so only the revision wipe keeps them from being served,
    // plus the calibration blob revision-1 builds wrote. Revision 4 is the
    // last before transient peaks came from unit-step responses, and 5 the
    // last before the "throw" error named the request's solo policy.
    const ScopedTempDir dir("serve-cache");
    {
      persist::StoreOptions old;
      old.schema_revision = revision;
      persist::SegmentStore store(dir.path(), old);
      for (const std::string& key : keys) {
        ASSERT_TRUE(store.put(key, R"({"id":"stale","ok":true})"));
      }
    }
    const std::string blob_path = dir.path() + "/calibration.v1";
    {
      std::ofstream blob(blob_path, std::ios::binary);
      blob << kOldCalibrationBlob;
    }

    // Opening it wipes the old revision: everything executes, and the
    // bytes equal a serve over an empty directory.
    const ScopedTempDir empty("serve-cache-empty");
    const RunOutput cold = serve_once(input, empty.path(), {});
    ASSERT_EQ(cold.summary.failed, 0u);
    const RunOutput first = serve_once(input, dir.path(), {});
    EXPECT_EQ(first.records, cold.records);
    EXPECT_EQ(first.summary.executed, 8u);
    EXPECT_EQ(first.summary.disk_hits, 0u);

    // What `thermosched cache verify|compact` open: the existing store,
    // schema-checked, never created.
    {
      persist::StoreOptions options;
      options.schema_revision = dispatch::kResultSchemaRevision;
      options.schema_policy = persist::SchemaPolicy::kFailOnMismatch;
      options.create_if_missing = false;
      persist::SegmentStore store(dir.path(), options);
      const persist::SegmentStore::VerifyReport report = store.verify();
      EXPECT_TRUE(report.clean());
      EXPECT_EQ(report.valid_records, 8u);
      EXPECT_EQ(store.compact(), 8u);
      EXPECT_TRUE(store.verify().clean());
    }

    // A later `serve --cache-dir` replays every record from disk.
    const RunOutput replay = serve_once(input, dir.path(), {});
    EXPECT_EQ(replay.records, first.records);
    EXPECT_EQ(replay.summary.executed, 0u);
    EXPECT_EQ(replay.summary.disk_hits, 8u);

    ASSERT_TRUE(std::filesystem::exists(blob_path));
    EXPECT_EQ(read_file(blob_path), kOldCalibrationBlob);
  }
}

}  // namespace
}  // namespace thermo::scenario
