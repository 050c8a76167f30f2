#include "dispatch/disk_result_memo.hpp"

#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "sweep/for_each_index.hpp"

namespace thermo::dispatch {

namespace {

persist::StoreOptions with_result_schema(persist::StoreOptions options) {
  options.schema_revision = kResultSchemaRevision;
  return options;
}

}  // namespace

DiskResultMemo::DiskResultMemo(std::string dir, Options options)
    : ResultMemo(options.memory_capacity),
      store_(std::move(dir), with_result_schema(options.store)) {}

std::optional<std::string> DiskResultMemo::find(std::string_view key) {
  if (std::optional<std::string> record = ResultMemo::find(key)) {
    return record;
  }
  std::optional<std::string> record = read_disk(key);
  if (record) promote(key, *record);
  return record;
}

std::vector<std::optional<std::string>> DiskResultMemo::find_all(
    const std::vector<std::string_view>& keys, std::size_t threads) {
  // (a) The disk reads the find() loop would make: the first occurrence
  // of each key the memory tier does not hold now. Recency is untouched.
  std::vector<std::size_t> reads;
  std::unordered_set<std::string_view> seen;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!resident(keys[i]) && seen.insert(keys[i]).second) reads.push_back(i);
  }
  // (b) Read and verify them on the pool, each into its own slot.
  std::vector<std::optional<std::string>> prefetched(reads.size());
  sweep::for_each_index(threads, reads.size(), [&](std::size_t r) {
    prefetched[r] = read_disk(keys[reads[r]]);
  });
  // (c) Replay the find() loop in key order: the memory tier, else the
  // prefetched record, else (a key that was resident in (a) but has been
  // evicted by a promotion since) a read now. Promotions happen here,
  // serially, so the tier's final state is the loop's.
  std::vector<std::optional<std::string>> records(keys.size());
  std::size_t next = 0;  // the next unreplayed slot of `prefetched`
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool was_read = next < reads.size() && reads[next] == i;
    records[i] = ResultMemo::find(keys[i]);
    if (!records[i]) {
      records[i] = was_read ? std::move(prefetched[next]) : read_disk(keys[i]);
      if (records[i]) promote(keys[i], *records[i]);
    }
    if (was_read) ++next;
  }
  return records;
}

std::optional<std::string> DiskResultMemo::read_disk(std::string_view key) {
  try {
    return store_.get(key);
  } catch (const persist::CrashError&) {
    throw;  // an injected crash must never be absorbed into a miss
  } catch (const persist::IoError&) {
    // Transient read failure: the record stays on disk and stays
    // indexed; for a CACHE the right degradation is a miss — the
    // engine simply recomputes.
    return std::nullopt;
  }
}

void DiskResultMemo::promote(std::string_view key, const std::string& record) {
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& disk_hit_metric =
      obs::MetricsRegistry::instance().counter("dispatch.disk_memo.hits");
  disk_hit_metric.add();
  // Promote: repeat lookups of a hot key should not re-read and
  // re-checksum the segment file every time.
  ResultMemo::insert(key, record);
}

void DiskResultMemo::insert(std::string_view key, std::string record) {
  // Disk first: if the append fails, the memo must not hold a record in
  // memory that a restarted process would silently be missing.
  store_.put(key, record);
  ResultMemo::insert(key, std::move(record));
}

}  // namespace thermo::dispatch
