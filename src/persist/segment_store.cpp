#include "persist/segment_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace thermo::persist {

namespace {

// On-disk layout (docs/PERSIST.md "Format"):
//
//   segment header (20 bytes)
//     0..3   magic "TSG1"
//     4..7   u32 LE  segment format version (kSegmentFormatVersion)
//     8..11  u32 LE  payload schema revision (StoreOptions)
//     12..15 u32 LE  segment sequence number
//     16..19 u32 LE  header checksum: fnv1a64(bytes 0..15) folded to 32
//
//   record frame (16 + key + value bytes)
//     0..3   u32 LE  key length   (1 .. kMaxLength)
//     4..7   u32 LE  value length (0 .. kMaxLength)
//     8..            key bytes, then value bytes
//     last 8 u64 LE  frame checksum: fnv1a64(length bytes ++ key ++ value)
//
// Everything is explicit little-endian byte packing — a segment written
// on one machine scans identically on any other.

constexpr char kMagic[4] = {'T', 'S', 'G', '1'};
constexpr std::size_t kHeaderSize = 20;
constexpr std::size_t kFrameOverhead = 16;
/// Plausibility bound on either length field: a frame header whose
/// lengths exceed this is torn-write garbage, not a 64 MiB record.
constexpr std::uint32_t kMaxLength = 1u << 26;

void append_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void append_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(p[i]);
  }
  return value;
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(p[i]);
  }
  return value;
}

std::uint32_t fold32(std::uint64_t hash) {
  return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

std::string encode_header(std::uint32_t schema, std::uint32_t seq) {
  std::string out;
  out.reserve(kHeaderSize);
  out.append(kMagic, sizeof kMagic);
  append_u32(out, kSegmentFormatVersion);
  append_u32(out, schema);
  append_u32(out, seq);
  append_u32(out, fold32(fnv1a64(out)));
  return out;
}

struct HeaderInfo {
  bool ok = false;
  std::uint32_t schema = 0;
  std::uint32_t seq = 0;
};

HeaderInfo decode_header(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) return {};
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) return {};
  if (fold32(fnv1a64(bytes.substr(0, 16))) != read_u32(bytes.data() + 16)) {
    return {};
  }
  if (read_u32(bytes.data() + 4) != kSegmentFormatVersion) return {};
  return {true, read_u32(bytes.data() + 8), read_u32(bytes.data() + 12)};
}

std::uint64_t frame_checksum(std::string_view length_bytes,
                             std::string_view key, std::string_view value) {
  std::uint64_t hash = fnv1a64(length_bytes);
  hash = fnv1a64(key, hash);
  return fnv1a64(value, hash);
}

std::string encode_frame(std::string_view key, std::string_view value) {
  std::string out;
  out.reserve(kFrameOverhead + key.size() + value.size());
  append_u32(out, static_cast<std::uint32_t>(key.size()));
  append_u32(out, static_cast<std::uint32_t>(value.size()));
  out.append(key);
  out.append(value);
  append_u64(out, frame_checksum(std::string_view(out.data(), 8), key, value));
  return out;
}

struct FrameView {
  bool ok = false;
  std::string_view key;
  std::string_view value;
};

/// Validates one complete frame (exact length, checksum) and exposes
/// views into it. Never trusts lengths beyond the plausibility bound.
FrameView decode_frame(std::string_view frame) {
  if (frame.size() < kFrameOverhead) return {};
  const std::uint32_t key_length = read_u32(frame.data());
  const std::uint32_t value_length = read_u32(frame.data() + 4);
  if (key_length == 0 || key_length > kMaxLength || value_length > kMaxLength) {
    return {};
  }
  if (frame.size() != kFrameOverhead + std::size_t{key_length} + value_length) {
    return {};
  }
  const std::string_view key = frame.substr(8, key_length);
  const std::string_view value = frame.substr(8 + std::size_t{key_length},
                                              value_length);
  if (frame_checksum(frame.substr(0, 8), key, value) !=
      read_u64(frame.data() + frame.size() - 8)) {
    return {};
  }
  return {true, key, value};
}

struct ScanRecord {
  std::uint64_t offset = 0;
  std::size_t frame_length = 0;
  std::string key;
};

struct ScanDamage {
  std::uint64_t offset = 0;
  std::string reason;
};

struct SegmentScan {
  bool header_ok = false;
  std::uint32_t schema = 0;
  std::uint32_t seq = 0;
  std::vector<ScanRecord> records;
  std::vector<ScanDamage> damage;
};

/// The recovery scan. Policy (docs/PERSIST.md "Open and recovery"):
///   * an empty file is crash residue from segment creation — no
///     records, no damage;
///   * a bad or short header condemns the segment (its frames cannot be
///     trusted) but never the store;
///   * a frame whose lengths are implausible or overrun the file is a
///     truncated/torn tail: flag it, stop — nothing after a tear has a
///     trustworthy frame boundary;
///   * a complete frame with a bad checksum is in-place corruption:
///     flag it, skip it, keep scanning — the boundaries are intact.
SegmentScan scan_segment(std::string_view bytes) {
  SegmentScan scan;
  if (bytes.empty()) return scan;
  const HeaderInfo header = decode_header(bytes);
  if (!header.ok) {
    scan.damage.push_back({0, bytes.size() < kHeaderSize ? "truncated header"
                                                         : "bad header"});
    return scan;
  }
  scan.header_ok = true;
  scan.schema = header.schema;
  scan.seq = header.seq;
  std::size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < 8) {
      scan.damage.push_back({pos, "truncated frame"});
      break;
    }
    const std::uint32_t key_length = read_u32(bytes.data() + pos);
    const std::uint32_t value_length = read_u32(bytes.data() + pos + 4);
    if (key_length == 0 || key_length > kMaxLength ||
        value_length > kMaxLength ||
        kFrameOverhead + std::size_t{key_length} + value_length > remaining) {
      scan.damage.push_back({pos, "truncated frame"});
      break;
    }
    const std::size_t frame_length =
        kFrameOverhead + std::size_t{key_length} + value_length;
    const FrameView view = decode_frame(bytes.substr(pos, frame_length));
    if (!view.ok) {
      scan.damage.push_back({pos, "checksum mismatch"});
    } else {
      scan.records.push_back({pos, frame_length, std::string(view.key)});
    }
    pos += frame_length;
  }
  return scan;
}

/// "seg-<digits>.log" -> sequence number; nullopt for anything else
/// (foreign files in the directory are left alone).
std::optional<std::uint32_t> parse_segment_name(std::string_view name) {
  if (!name.starts_with("seg-") || !name.ends_with(".log")) return std::nullopt;
  const std::string_view digits = name.substr(4, name.size() - 8);
  if (digits.empty() || digits.size() > 9) return std::nullopt;
  std::uint32_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (seq == 0) return std::nullopt;
  return seq;
}

/// Store observability (docs/OBSERVABILITY.md): what each disk-facing
/// operation costs, fsync separated out because it dominates
/// appends (every record is fsynced) — the numbers `thermosched cache
/// stats` reports for tuning.
struct StoreMetrics {
  obs::Counter& appends;
  obs::Counter& get_hits;
  obs::Counter& get_misses;
  obs::Histogram& append_ns;
  obs::Histogram& fsync_ns;
  obs::Histogram& open_scan_ns;
  obs::Histogram& compact_ns;
};

StoreMetrics& store_metrics() {
  auto& registry = obs::MetricsRegistry::instance();
  static StoreMetrics metrics{registry.counter("persist.appends"),
                              registry.counter("persist.get_hits"),
                              registry.counter("persist.get_misses"),
                              registry.histogram("persist.append_ns"),
                              registry.histogram("persist.fsync_ns"),
                              registry.histogram("persist.open_scan_ns"),
                              registry.histogram("persist.compact_ns")};
  return metrics;
}

}  // namespace

std::string SegmentStore::segment_name(std::uint32_t seq) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "seg-%06u.log", seq);
  return buffer;
}

std::string SegmentStore::segment_path(std::uint32_t seq) const {
  return dir_ + "/" + segment_name(seq);
}

SegmentStore::SegmentStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      fs_(options.fs != nullptr ? *options.fs : real_fs()) {
  THERMO_REQUIRE(!dir_.empty(), "SegmentStore directory must be non-empty");
  THERMO_REQUIRE(options_.segment_size_cap > kHeaderSize,
                 "segment_size_cap must exceed the header size");
  open_scan();
}

SegmentStore::~SegmentStore() {
  try {
    const std::lock_guard<std::shared_mutex> lock(mutex_);
    if (active_) {
      active_->sync();
      active_->close();
    }
  } catch (const Error&) {
    // Destruction must not throw; every acknowledged put() was already
    // synced.
  }
}

void SegmentStore::open_scan() {
  obs::TraceSpan scan_span("persist.scan");
  obs::ScopedTimer scan_timer(store_metrics().open_scan_ns);
  if (!fs_.exists(dir_)) {
    if (!options_.create_if_missing) {
      throw IoError("no cache directory at '" + dir_ + "'");
    }
    fs_.create_directories(dir_);
  }

  struct Seg {
    std::uint32_t seq;
    std::string name;
  };
  std::vector<Seg> segs;
  for (const std::string& name : fs_.list_dir(dir_)) {
    if (name.ends_with(".tmp")) {
      // A compaction that crashed before its atomic rename: the
      // temporary never became visible, so it is plain garbage.
      fs_.remove_file(dir_ + "/" + name);
      continue;
    }
    if (const auto seq = parse_segment_name(name)) {
      segs.push_back({*seq, name});
    }
  }
  std::sort(segs.begin(), segs.end(),
            [](const Seg& a, const Seg& b) { return a.seq < b.seq; });

  std::vector<SegmentScan> scans;
  scans.reserve(segs.size());
  std::optional<std::uint32_t> foreign_schema;
  for (const Seg& seg : segs) {
    const std::string bytes = fs_.read_file(dir_ + "/" + seg.name);
    SegmentScan scan = scan_segment(bytes);
    if (scan.header_ok && scan.schema != options_.schema_revision &&
        !foreign_schema) {
      foreign_schema = scan.schema;
    }
    segment_bytes_[seg.seq] = bytes.size();
    next_seq_ = std::max(next_seq_, seg.seq + 1);
    scans.push_back(std::move(scan));
  }

  if (foreign_schema) {
    if (options_.schema_policy == SchemaPolicy::kFailOnMismatch) {
      throw Error("cache at '" + dir_ + "' has schema revision " +
                  std::to_string(*foreign_schema) + ", expected " +
                  std::to_string(options_.schema_revision) +
                  " — refusing to touch it");
    }
    // Payload schema bump: the old records can no longer be interpreted,
    // so the whole store is invalidated in one step.
    for (const Seg& seg : segs) fs_.remove_file(dir_ + "/" + seg.name);
    segment_bytes_.clear();
    next_seq_ = 1;
    stats_.wiped_on_open = true;
    return;
  }

  for (std::size_t i = 0; i < segs.size(); ++i) {
    stats_.damaged_at_open += scans[i].damage.size();
    for (ScanRecord& record : scans[i].records) {
      // emplace keeps the first occurrence: segments are scanned in
      // ascending sequence, so this reproduces first-insert-wins across
      // restarts (duplicates only exist as identical-byte compaction or
      // crash leftovers anyway).
      index_.emplace(std::move(record.key),
                     Location{segs[i].seq, record.offset, record.frame_length});
    }
  }
}

void SegmentStore::ensure_active() {
  if (active_) return;
  // The sequence number is consumed up front: if creating or writing the
  // header fails, that number is burned and the next attempt uses a
  // fresh file — this store never appends to a file whose tail state it
  // is not certain of.
  const std::uint32_t seq = next_seq_++;
  std::unique_ptr<WritableFile> file = fs_.open_append(segment_path(seq));
  const std::string header = encode_header(options_.schema_revision, seq);
  file->append(header);
  active_ = std::move(file);
  active_seq_ = seq;
  active_offset_ = header.size();
  segment_bytes_[seq] = active_offset_;
}

void SegmentStore::rotate() {
  active_->sync();
  active_->close();
  active_.reset();
}

void SegmentStore::abandon_active() noexcept {
  try {
    if (active_) active_->close();
  } catch (const Error&) {
    // Already abandoning; the segment's tail is damage either way and
    // the next compact() scrubs it.
  }
  active_.reset();
}

bool SegmentStore::put(std::string_view key, std::string_view value) {
  THERMO_REQUIRE(!key.empty(), "SegmentStore keys must be non-empty");
  THERMO_REQUIRE(key.size() <= kMaxLength && value.size() <= kMaxLength,
                 "SegmentStore record exceeds the 64 MiB field bound");
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  if (index_.find(key) != index_.end()) return false;
  const std::string frame = encode_frame(key, value);
  try {
    obs::TraceSpan append_span("persist.append");
    obs::ScopedTimer append_timer(store_metrics().append_ns);
    ensure_active();
    active_->append(frame);
    obs::ScopedTimer fsync_timer(store_metrics().fsync_ns);
    active_->sync();
  } catch (...) {
    // The segment now (possibly) ends in a partial frame. Never append
    // after a tail we are not certain of: abandon the segment — its torn
    // tail is detected by checksum on the next scan and scrubbed by the
    // next compact() — and surface the failure unacknowledged.
    abandon_active();
    throw;
  }
  index_.emplace(std::string(key),
                 Location{active_seq_, active_offset_, frame.size()});
  active_offset_ += frame.size();
  segment_bytes_[active_seq_] = active_offset_;
  ++stats_.appends;
  store_metrics().appends.add();
  if (active_offset_ >= options_.segment_size_cap) {
    try {
      rotate();
    } catch (...) {
      abandon_active();
      throw;  // the record itself is already durable and indexed
    }
  }
  return true;
}

std::optional<std::string> SegmentStore::get(std::string_view key) {
  Location loc;
  std::string frame;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      store_metrics().get_misses.add();
      return std::nullopt;
    }
    loc = it->second;
    // A failed read is TRANSIENT (it says nothing about the bytes on
    // disk) and propagates as IoError — the caller may retry and the
    // record stays indexed. Only a successful read whose bytes fail
    // verification is evidence of corruption and may drop the entry.
    // The read stays under the shared lock: compact() (exclusive) is
    // what renames and removes segment files.
    frame = fs_.read_range(segment_path(loc.seq), loc.offset, loc.frame_length);
  }
  const FrameView view = decode_frame(frame);
  if (!view.ok || view.key != key) {
    // The bytes under this index entry are no longer what was written
    // (external truncation/corruption since open). Serving them would
    // violate the never-wrong-bytes contract; degrade to a miss. Other
    // readers may have seen the same frame, and a compact() may have
    // moved the key since: drop the entry only if it still points here.
    store_metrics().get_misses.add();
    const std::lock_guard<std::shared_mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end() && it->second == loc) index_.erase(it);
    return std::nullopt;
  }
  store_metrics().get_hits.add();
  return std::string(view.value);
}

SegmentStore::VerifyReport SegmentStore::verify() {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  if (active_) active_->sync();
  VerifyReport report;
  for (const std::string& name : fs_.list_dir(dir_)) {
    if (!parse_segment_name(name)) continue;
    ++report.segments;
    const SegmentScan scan = scan_segment(fs_.read_file(dir_ + "/" + name));
    report.valid_records += scan.records.size();
    for (const ScanDamage& damage : scan.damage) {
      report.damage.push_back({name, damage.offset, damage.reason});
    }
  }
  return report;
}

std::size_t SegmentStore::compact() {
  obs::TraceSpan compact_span("persist.compact");
  obs::ScopedTimer compact_timer(store_metrics().compact_ns);
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  if (active_) {
    active_->sync();
    active_->close();
    active_.reset();
  }

  // Live records in append order (sequence, then offset) — compaction
  // preserves the store's history order, so a compacted store scans to
  // the same index as the original.
  std::vector<std::pair<Location, const std::string*>> live;
  live.reserve(index_.size());
  for (const auto& [key, loc] : index_) live.push_back({loc, &key});
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.first.seq != b.first.seq ? a.first.seq < b.first.seq
                                      : a.first.offset < b.first.offset;
  });

  const std::uint32_t new_seq = next_seq_++;
  const std::string tmp_path = dir_ + "/compact.tmp";
  if (fs_.exists(tmp_path)) fs_.remove_file(tmp_path);
  std::unique_ptr<WritableFile> out = fs_.open_append(tmp_path);
  const std::string header = encode_header(options_.schema_revision, new_seq);
  out->append(header);
  std::uint64_t offset = header.size();

  std::vector<std::pair<std::string, Location>> relocated;
  relocated.reserve(live.size());
  for (const auto& [loc, key] : live) {
    const std::string frame =
        fs_.read_range(segment_path(loc.seq), loc.offset, loc.frame_length);
    const FrameView view = decode_frame(frame);
    if (!view.ok || view.key != *key) continue;  // damaged since open: scrubbed
    out->append(frame);
    relocated.emplace_back(*key, Location{new_seq, offset, frame.size()});
    offset += frame.size();
  }
  out->sync();
  out->close();
  // The commit point: until this rename the new segment is invisible
  // (open_scan removes *.tmp), after it the store is complete in one
  // file and every older segment is redundant.
  fs_.rename_file(tmp_path, segment_path(new_seq));

  index_.clear();
  for (auto& [key, loc] : relocated) index_.emplace(std::move(key), loc);
  segment_bytes_.clear();
  segment_bytes_[new_seq] = offset;

  // Deleting inputs AFTER the commit: a crash between these removes
  // leaves duplicate records, and duplicates of immutable records are
  // harmless (the scan's first-wins dedups them).
  for (const std::string& name : fs_.list_dir(dir_)) {
    const auto seq = parse_segment_name(name);
    if (seq && *seq != new_seq) fs_.remove_file(dir_ + "/" + name);
  }
  return relocated.size();
}

SegmentStore::Stats SegmentStore::stats() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  Stats out = stats_;
  out.records = index_.size();
  out.segments = segment_bytes_.size();
  out.disk_bytes = 0;
  for (const auto& [seq, bytes] : segment_bytes_) out.disk_bytes += bytes;
  out.schema_revision = options_.schema_revision;
  return out;
}

}  // namespace thermo::persist
