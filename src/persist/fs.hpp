// The persist layer's file-operation seam: every byte SegmentStore puts
// on (or reads off) disk flows through the `Fs` interface, so tests can
// substitute a deterministic fault injector (tests/oracles/fault_fs.hpp)
// for the real filesystem and prove crash consistency (docs/PERSIST.md)
// instead of assuming it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace thermo::persist {

/// A real I/O failure (unwritable path, disk full, unreadable file).
/// Production code may catch and report this like any other Error.
class IoError : public Error {
 public:
  using Error::Error;
};

/// Thrown by a fault-injecting Fs when its crash point fires, and by
/// every operation after it: the process "died" at that instant.
/// Production code must never catch this specifically — only the
/// crash-test driver does, before reopening the directory to check
/// recovery. Deriving from IoError keeps honest generic error paths
/// working (a store that treats it as a plain I/O failure is fine; it is
/// about to be torn down).
class CrashError : public IoError {
 public:
  using IoError::IoError;
};

/// An open append-only file handle. Destruction closes without syncing —
/// exactly what happens to OS buffers when a process dies, which is why
/// durability claims in SegmentStore are tied to sync() returning, never
/// to append().
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  WritableFile() = default;
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  /// Appends all of `bytes` (or throws; no silent short writes).
  virtual void append(std::string_view bytes) = 0;
  /// Flushes application and OS buffers to durable storage (fsync).
  virtual void sync() = 0;
  /// Closes the handle; idempotent. Does NOT imply sync().
  virtual void close() = 0;
};

/// Minimal filesystem surface for an append-only segment store. Paths
/// are plain strings (UTF-8, '/'-separated) so fakes need no
/// std::filesystem. All methods throw IoError on failure.
class Fs {
 public:
  virtual ~Fs() = default;

  virtual std::unique_ptr<WritableFile> open_append(const std::string& path) = 0;
  /// Whole-file read (segment scan at open/verify time).
  virtual std::string read_file(const std::string& path) = 0;
  /// Byte range [offset, offset+length) of a file; throws IoError when
  /// the range overruns the file (a record the index points at must
  /// exist in full). Must be safe to call concurrently: SegmentStore
  /// serves gets under a shared lock.
  virtual std::string read_range(const std::string& path,
                                 std::uint64_t offset, std::size_t length) = 0;
  /// Regular-file names directly inside `dir`, sorted (deterministic
  /// scan order); empty when the directory does not exist.
  virtual std::vector<std::string> list_dir(const std::string& dir) = 0;
  virtual void create_directories(const std::string& dir) = 0;
  virtual bool exists(const std::string& path) = 0;
  /// Atomic replace (POSIX rename semantics) — the commit point of
  /// crash-safe compaction.
  virtual void rename_file(const std::string& from, const std::string& to) = 0;
  virtual void remove_file(const std::string& path) = 0;
};

/// The process-wide real filesystem (POSIX): cstdio appends + fsync,
/// pread range reads, std::filesystem for the directory operations.
Fs& real_fs();

}  // namespace thermo::persist
