// DiskResultMemo: a ResultMemo whose records also live in a crash-safe
// on-disk segment store, so a cold process inherits every result an
// earlier process computed (ROADMAP item: fleet-shared result cache).
//
// Tiering on find(): memory hit (the inherited LRU table) → disk hit
// (persist::SegmentStore::get, checksum-verified; the record is promoted
// into memory) → miss (the engine executes). find_all() reads a batch's
// disk hits on the pool and then promotes them on the calling thread in
// key order, so it ends in the state a find() loop would. insert()
// writes through: the record is appended durably (the store fsyncs
// every record before insert() returns) and cached in memory.
// First-insert-wins holds across both tiers for the same reason as in
// the base class: records are pure functions of their content-address
// keys, so any duplicate — racing threads, racing *processes*, a
// restart replaying a batch — carries identical bytes.
//
// The disk store is stamped with kResultSchemaRevision. Bump it whenever
// the serve record format changes; an old cache directory is then wiped
// on open (SchemaPolicy::kWipeOnMismatch) instead of serving records the
// new code would misinterpret.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dispatch/result_memo.hpp"
#include "persist/segment_store.hpp"

namespace thermo::dispatch {

/// Payload schema revision of serve result records. Bump on any change
/// to the canonical request serialization (the keys) or the JSONL
/// result-line format (the values). Revision 2: `solver.backend` left
/// the canonical request form, every solve went sparse, and ok:false
/// messages lost their source-file prefix. Revision 3: transient
/// sessions whose length is a whole number of steps within rounding
/// (2 s at dt = 1 ms) no longer end with a sliver step, which moves the
/// temperatures of those records. Revision 4: steady solo peaks come
/// from each model's self-resistance table (ambient + pᵢ·(G⁻¹)ᵢᵢ), not a
/// path solve, which moves the last bits of steady one-core fields.
/// Revision 5: transient session peaks are sums of each model's unit-step
/// responses (superposition), not a stepped session, which moves the last
/// bits of transient Algorithm 1 temperatures. Revision 6: the error of
/// a `"throw"` request whose core breaks TL alone names the request's
/// solo policy 'raise-limit', not the library enum.
inline constexpr std::uint32_t kResultSchemaRevision = 6;

class DiskResultMemo final : public ResultMemo {
 public:
  struct Options {
    /// Capacity of the in-memory LRU tier.
    std::size_t memory_capacity = ResultMemo::kDefaultCapacity;
    /// Disk-store options. schema_revision is overridden with
    /// kResultSchemaRevision regardless of what is set here — the
    /// revision belongs to the record format, not to callers.
    persist::StoreOptions store;
  };

  /// Opens (or creates) the cache directory. Throws IoError when the
  /// directory cannot be created/read; damaged segment contents never
  /// prevent opening (they surface in store().stats()).
  DiskResultMemo(std::string dir, Options options);
  explicit DiskResultMemo(std::string dir)
      : DiskResultMemo(std::move(dir), Options{}) {}

  /// Memory, then disk (with promotion into memory), then miss.
  std::optional<std::string> find(std::string_view key) override;

  /// find() over `keys` in order, with the disk reads on up to `threads`
  /// workers: (a) note the keys the memory tier lacks, (b) read and
  /// verify them from the store in parallel, (c) replay the find()
  /// sequence serially — memory hit, else the prefetched record, then
  /// promotion. Records, disk_hits(), the store's get counters and the
  /// memory tier's LRU order equal the serial loop's at any thread count.
  std::vector<std::optional<std::string>> find_all(
      const std::vector<std::string_view>& keys, std::size_t threads) override;

  /// Durably appends to disk (unless the key is already stored), then
  /// caches in memory. Propagates IoError from the disk append — a
  /// record must never be acknowledged as cached when it is not durable.
  void insert(std::string_view key, std::string record) override;

  /// find()s answered by the disk tier (memory misses that promoted).
  std::size_t disk_hits() const {
    return disk_hits_.load(std::memory_order_relaxed);
  }

  persist::SegmentStore& store() { return store_; }
  const persist::SegmentStore& store() const { return store_; }

 private:
  /// The store's record, or nullopt on a miss or a transient IoError.
  std::optional<std::string> read_disk(std::string_view key);
  /// Counts a disk hit and caches `record` in the memory tier.
  void promote(std::string_view key, const std::string& record);

  persist::SegmentStore store_;
  std::atomic<std::size_t> disk_hits_{0};
};

}  // namespace thermo::dispatch
