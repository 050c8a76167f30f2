// SegmentStore: a crash-safe, append-only, content-addressed record
// store — the disk half of the fleet-shareable result cache
// (docs/PERSIST.md is the format spec and crash-consistency contract).
//
// Layout (the SPDK blobstore/bdev idiom of separating dumb durable
// segments from a rebuildable index):
//
//   <dir>/seg-000001.log, seg-000002.log, ...   append-only segments
//   (in-memory)  key -> {segment, offset, frame length}
//
// Each segment starts with a checksummed 20-byte header (magic, format,
// schema revision, sequence number); each record is a length-prefixed,
// FNV-1a-64-checksummed frame of (key, value) bytes. The index is
// rebuilt by scanning the segments at open — there is no index file to
// keep consistent, so there is no index/segment mismatch to recover
// from. Records are immutable and first-insert-wins (the value is a
// pure function of the key, as in dispatch::ResultMemo), which makes
// every duplicate — racing writers, compaction leftovers — harmless.
//
// Crash-consistency contract (proved by tests/persist_crash_test.cpp
// over every injected crash point, including short and torn writes):
//   * put() returning true means the record is durable (fsynced): it
//     survives any later crash, byte-identical;
//   * a crash at ANY point leaves the directory openable; at most the
//     one in-flight (unacknowledged) record is missing;
//   * a checksum-invalid frame is never served — corruption degrades to
//     a miss, never to wrong bytes.
// Mechanisms: frames are checksummed so a torn tail is detected, not
// trusted; the active segment is never appended to across opens (a
// fresh segment per writer session, so garbage after a crash tail can
// never swallow later records); compaction writes a complete new
// segment, syncs it, then atomically renames it into place before
// deleting inputs; a schema-revision mismatch invalidates the whole
// store in one step (format bumps cannot half-apply).
//
// Concurrency: shared reads, exclusive writes. get() and stats() run
// under a shared lock, so the dispatch engine's workers read records in
// parallel; put(), compact(), verify() and the drop of a corrupt entry
// take the lock exclusively. One store instance may be shared by any
// number of threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "persist/fs.hpp"

namespace thermo::persist {

/// Bumped when the segment header or frame layout changes. Distinct
/// from StoreOptions::schema_revision, which versions the *payload*
/// (what the caller serializes into records).
inline constexpr std::uint32_t kSegmentFormatVersion = 1;

/// What to do when the directory holds segments of a different payload
/// schema revision.
enum class SchemaPolicy {
  /// Delete the stale segments and start empty — a format bump
  /// invalidates the cache cleanly (DiskResultMemo uses this).
  kWipeOnMismatch,
  /// Throw Error — inspection tools (`thermosched cache`) must never
  /// destroy data they were pointed at.
  kFailOnMismatch,
};

struct StoreOptions {
  /// Payload schema revision stamped into every segment header.
  std::uint32_t schema_revision = 1;
  /// Rotate to a new segment once the active one reaches this size.
  std::uint64_t segment_size_cap = 8ull << 20;
  SchemaPolicy schema_policy = SchemaPolicy::kWipeOnMismatch;
  /// false: opening a nonexistent directory throws IoError instead of
  /// creating it (inspection tools).
  bool create_if_missing = true;
  /// Filesystem to operate through (borrowed; must outlive the store).
  /// nullptr = the real filesystem. The crash tests substitute a fault
  /// injector (tests/oracles/fault_fs.hpp).
  Fs* fs = nullptr;
};

class SegmentStore {
 public:
  /// Opens (or creates) the store at `dir`: removes crashed-compaction
  /// temporaries, scans every segment, rebuilds the index, applies the
  /// schema policy. Throws IoError/Error per StoreOptions; never throws
  /// because of damaged or truncated segment contents — those become
  /// damage entries in stats()/verify().
  explicit SegmentStore(std::string dir, StoreOptions options = {});
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// The record stored under `key`, checksum-verified at read time, or
  /// nullopt. A frame that fails re-verification (post-open corruption)
  /// is dropped from the index and reported as a miss — never served.
  /// Runs under the shared lock; only the drop locks exclusively.
  std::optional<std::string> get(std::string_view key);

  /// Appends {key, value} unless the key is already present (first
  /// insert wins; returns false without touching disk). Every appended
  /// record is fsynced, so it is durable when this returns true. A
  /// failed append abandons the active segment (its partial tail frame
  /// is scrubbed by the next compact) so a transient I/O error cannot
  /// corrupt records appended after it.
  bool put(std::string_view key, std::string_view value);

  /// One damaged region found by a scan.
  struct Damage {
    std::string segment;   ///< file name, e.g. "seg-000002.log"
    std::uint64_t offset;  ///< byte offset of the damaged frame/header
    std::string reason;    ///< "checksum mismatch", "truncated frame", ...
  };

  struct VerifyReport {
    std::size_t segments = 0;       ///< segment files scanned
    std::size_t valid_records = 0;  ///< frames with valid checksums
    std::vector<Damage> damage;     ///< every damaged frame/header
    bool clean() const { return damage.empty(); }
  };

  /// Re-reads every segment from disk and checksums every frame —
  /// flags exactly the damaged records (tests/persist_corruption_test
  /// pins this). Read-only: the index and segments are not modified.
  VerifyReport verify();

  /// Rewrites all live records into one fresh segment (complete → fsync
  /// → atomic rename → delete inputs), dropping damaged frames and
  /// rotation/crash debris. Crash-safe at every step: the temporary is
  /// invisible to open() until the rename, and leftover inputs after a
  /// crash merely duplicate records the scan dedups. Returns the number
  /// of records carried over.
  std::size_t compact();

  struct Stats {
    std::size_t records = 0;        ///< live (indexed) records
    std::size_t segments = 0;       ///< segment files on disk
    std::uint64_t disk_bytes = 0;   ///< total segment bytes
    std::size_t appends = 0;        ///< put()s that wrote a frame
    std::size_t damaged_at_open = 0;   ///< damage entries in the open scan
    std::uint32_t schema_revision = 0;
    bool wiped_on_open = false;  ///< schema bump cleared a previous store
  };
  Stats stats() const;

  std::uint32_t schema_revision() const { return options_.schema_revision; }
  const std::string& directory() const { return dir_; }

  /// "seg-NNNNNN.log" for a sequence number (exposed for tests that
  /// need to damage a specific file).
  static std::string segment_name(std::uint32_t seq);

 private:
  struct Location {
    std::uint32_t seq = 0;
    std::uint64_t offset = 0;
    std::size_t frame_length = 0;
    bool operator==(const Location&) const = default;
  };

  /// Transparent hash: get() and put() look keys up by string_view,
  /// without building a std::string of the (≈1 KB) key.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  std::string segment_path(std::uint32_t seq) const;
  void open_scan();
  /// Opens the next segment lazily (read-only opens create no files).
  void ensure_active();
  void rotate();
  void abandon_active() noexcept;

  std::string dir_;
  StoreOptions options_;
  Fs& fs_;

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, Location, KeyHash, std::equal_to<>> index_;
  std::unique_ptr<WritableFile> active_;
  std::uint32_t active_seq_ = 0;
  std::uint64_t active_offset_ = 0;
  std::uint32_t next_seq_ = 1;
  /// Sizes of every segment file as last written/scanned, keyed by seq
  /// (ordered: compaction and stats walk it in sequence order).
  std::map<std::uint32_t, std::uint64_t> segment_bytes_;
  Stats stats_;
};

}  // namespace thermo::persist
