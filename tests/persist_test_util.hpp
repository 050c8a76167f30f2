// Shared helpers for the persist-layer test suite: scratch directories
// and deterministic record payloads (binary-unsafe bytes included, so
// round-trip tests prove the store is 8-bit clean).
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#if defined(__linux__)
#include <sys/vfs.h>
#include <unistd.h>
#endif

#include "util/rng.hpp"

namespace thermo::testing {

/// Where scratch directories go: /dev/shm when it is a writable tmpfs,
/// else the gtest temp dir. Stores sync every record; on tmpfs a sync
/// returns at once, so the crash sweeps do not wait on a disk. They test
/// the same thing there: a crash is an exception, and recovery reads
/// what the page cache holds.
inline const std::string& scratch_root() {
  static const std::string root = [] {
#if defined(__linux__)
    constexpr long kTmpfsMagic = 0x01021994;
    struct statfs fs {};
    if (::statfs("/dev/shm", &fs) == 0 &&
        static_cast<long>(fs.f_type) == kTmpfsMagic &&
        ::access("/dev/shm", W_OK) == 0) {
      return std::string("/dev/shm/");
    }
#endif
    return ::testing::TempDir();
  }();
  return root;
}

/// A unique scratch directory path under scratch_root(), recursively
/// removed on scope exit. The directory itself is NOT created — stores
/// with create_if_missing exercise their own creation path.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    std::string name = tag;
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("-") + info->test_suite_name() + "-" + info->name();
    }
    for (char& c : name) {
      if (c == '/' || c == '\\') c = '_';
    }
#if defined(__linux__)
    name += '-';  // /dev/shm is shared by every process on the machine
    name += std::to_string(::getpid());
#endif
    path_ = scratch_root() + name;
    std::filesystem::remove_all(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Deterministic binary payload for record index `i`: seeded bytes over
/// the full 0..255 range (embedded NULs, newlines, 0xff) of a
/// pseudo-random length in [min_length, min_length + 64).
inline std::string record_payload(std::size_t i, std::size_t min_length = 16) {
  Rng rng(0x9e3779b97f4a7c15ULL ^ i);
  const std::size_t length =
      min_length + static_cast<std::size_t>(rng.uniform_index(64));
  std::string bytes;
  bytes.reserve(length);
  for (std::size_t b = 0; b < length; ++b) {
    bytes.push_back(static_cast<char>(rng.next_u64() & 0xff));
  }
  return bytes;
}

inline std::string record_key(std::size_t i) {
  return "key-" + std::to_string(i);
}

}  // namespace thermo::testing
