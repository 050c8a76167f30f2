// FaultFs: a deterministic fault injector behind the persist layer's
// `Fs` seam (persist/fs.hpp). The crash bugs that matter in an
// append-only store live *between* file operations (a record appended
// but not yet fsync'd, a rotation half done, a compaction renamed but
// the old segments not yet removed) and *inside* them (a torn write
// persisting only a prefix of a frame, possibly followed by garbage).
// FaultFs can stop the world at any such point — op N of a
// deterministic workload — and the crash sweep in
// tests/persist_crash_test.cpp then reopens the directory with the real
// filesystem and checks the recovery contract (docs/PERSIST.md).
//
// Determinism: FaultFs's torn-write prefix lengths and garbage bytes are
// drawn from a util::Rng seeded by the fault plan, so a failing crash
// point replays exactly from {workload, plan.after_ops, plan.kind,
// plan.seed}.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/fs.hpp"
#include "util/rng.hpp"

namespace thermo::persist {

/// What FaultFs does when the faulted operation is reached.
enum class FaultKind {
  /// Throw before the underlying operation runs: a clean crash on the
  /// op boundary (nothing of op N hits disk).
  kCrashBefore,
  /// Perform the underlying operation, then throw: the other side of
  /// every op boundary (op N fully hit disk, nothing after it).
  kCrashAfter,
  /// On an append: persist a seeded prefix of the bytes, then throw — a
  /// short write cut clean at an arbitrary byte. On any other op,
  /// behaves like kCrashBefore.
  kShortWrite,
  /// On an append: persist a seeded prefix plus a few seeded garbage
  /// bytes, then throw — a torn sector write. On any other op, behaves
  /// like kCrashBefore.
  kTornWrite,
  /// Throw IoError (not CrashError) before the op, once; later ops
  /// succeed. Models a transient I/O failure the caller must surface
  /// without corrupting its in-memory state.
  kFailOp,
};

struct FaultPlan {
  /// 0-based index (over ALL Fs/WritableFile operations, reads
  /// included) of the operation at which the fault fires. The default
  /// never fires, which makes a plain FaultFs an operation counter —
  /// crash sweeps first run fault-free to learn the op count.
  std::size_t after_ops = static_cast<std::size_t>(-1);
  FaultKind kind = FaultKind::kCrashBefore;
  /// Seeds the torn/short-write prefix length and garbage bytes.
  std::uint64_t seed = 1;
};

/// Fault-injecting decorator over another Fs (normally real_fs()).
/// Counts every operation; when the count reaches plan.after_ops the
/// plan's fault fires. After a crash fault, every subsequent operation
/// throws CrashError — the "process" is dead, and the store object in
/// front of it is unusable by construction.
class FaultFs : public Fs {
 public:
  explicit FaultFs(Fs& base, FaultPlan plan = {});

  std::unique_ptr<WritableFile> open_append(const std::string& path) override;
  std::string read_file(const std::string& path) override;
  std::string read_range(const std::string& path, std::uint64_t offset,
                         std::size_t length) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  void create_directories(const std::string& dir) override;
  bool exists(const std::string& path) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void remove_file(const std::string& path) override;

  /// Operations observed so far (the fault-free run's final value is the
  /// sweep's crash-point count).
  std::size_t ops_seen() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ops_;
  }
  /// Whether the crash fault has fired (all further ops throw).
  bool crashed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return crashed_;
  }

  // Internal surface for the wrapped file handles (they live in the
  // implementation file, so these cannot be private friends).

  /// Charges one operation (under the counter's lock); throws per the
  /// plan when the fault op is reached. Returns true when the caller (an
  /// append) should apply the short/torn-write treatment. For
  /// kCrashAfter it only sets crashed() — the operation wrapper performs
  /// the base op, then throws.
  bool charge(bool is_append);
  const FaultPlan& plan() const { return plan_; }
  Rng& torn_rng() { return rng_; }

 private:
  Fs& base_;
  FaultPlan plan_;
  Rng rng_;
  /// Guards ops_ and crashed_: a store serves gets from several threads
  /// at once, and each read_range is charged.
  mutable std::mutex mutex_;
  std::size_t ops_ = 0;
  bool crashed_ = false;
};

}  // namespace thermo::persist
