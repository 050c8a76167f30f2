// The crash sweep: the store's crash-consistency contract, proved at
// EVERY file-operation boundary rather than sampled. A canonical
// workload (puts spanning several rotations, a compaction, interleaved
// reads) first runs fault-free through a FaultFs to learn its operation
// count N; the sweep then replays it N times per fault kind, injecting
// a crash at op 0, 1, ..., N-1 — clean crashes on both sides of each
// boundary, short writes, and torn writes (prefix + garbage bytes).
// After each "crash" the directory is reopened with the REAL filesystem
// and the contract is checked:
//   * reopen succeeds — the store never refuses a crashed directory;
//   * every acknowledged record (put() returned) is served
//     byte-identically;
//   * at most the one in-flight record is unaccounted for, and if its
//     bytes did reach disk they are byte-identical too — a crash can
//     lose the tail, never corrupt what is served.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "oracles/fault_fs.hpp"
#include "persist/segment_store.hpp"
#include "persist_test_util.hpp"
#include "util/error.hpp"

namespace thermo::persist {

/// Names a sweep's fault kind in its test name (".../CrashBefore").
void PrintTo(FaultKind kind, std::ostream* out) {
  switch (kind) {
    case FaultKind::kCrashBefore: *out << "CrashBefore"; return;
    case FaultKind::kCrashAfter: *out << "CrashAfter"; return;
    case FaultKind::kShortWrite: *out << "ShortWrite"; return;
    case FaultKind::kTornWrite: *out << "TornWrite"; return;
    case FaultKind::kFailOp: *out << "FailOp"; return;
  }
}

namespace {

using testing::record_key;
using testing::record_payload;
using testing::ScopedTempDir;

constexpr std::size_t kRecords = 12;
constexpr std::size_t kCompactAt = 7;
constexpr std::size_t kValueBytes = 48;

StoreOptions sweep_options(Fs* fs) {
  StoreOptions options;
  // Small cap so the workload rotates several times: rotation and the
  // first put into a fresh segment are crash points worth sweeping.
  options.segment_size_cap = 400;
  options.fs = fs;
  return options;
}

/// The canonical workload. Every index pushed to `acknowledged` had its
/// put() return — the store vouched for that record's durability.
void run_workload(Fs& fs, const std::string& dir,
                  std::vector<std::size_t>* acknowledged) {
  StoreOptions options = sweep_options(&fs);
  SegmentStore store(dir, options);
  for (std::size_t i = 0; i < kRecords; ++i) {
    store.put(record_key(i), record_payload(i, kValueBytes));
    acknowledged->push_back(i);
    if (i == kCompactAt) store.compact();
    if (i == 4) store.get(record_key(1));  // reads share the op stream
  }
}

/// Post-crash contract check against the real filesystem.
void check_recovery(const std::string& dir,
                    const std::vector<std::size_t>& acknowledged) {
  // Reopen must succeed (a throw here fails the test with the message).
  SegmentStore reopened(dir, sweep_options(nullptr));
  for (const std::size_t i : acknowledged) {
    const auto value = reopened.get(record_key(i));
    ASSERT_TRUE(value.has_value())
        << "acknowledged record " << i << " lost after crash";
    ASSERT_EQ(*value, record_payload(i, kValueBytes))
        << "acknowledged record " << i << " corrupted after crash";
  }
  std::size_t unacknowledged_survivors = 0;
  for (std::size_t i = 0; i < kRecords; ++i) {
    if (i < acknowledged.size()) continue;  // acknowledged are 0..k-1
    if (const auto value = reopened.get(record_key(i))) {
      ++unacknowledged_survivors;
      // Present but unacknowledged is allowed (the crash hit between
      // durability and the return) — but only byte-identical.
      EXPECT_EQ(*value, record_payload(i, kValueBytes));
    }
  }
  EXPECT_LE(unacknowledged_survivors, 1u)
      << "more than the in-flight record appeared without acknowledgement";
}

/// One sweep per crash fault kind, so the four run as separate tests
/// (and in parallel under `ctest -j`).
class PersistCrashSweep : public ::testing::TestWithParam<FaultKind> {};

TEST_P(PersistCrashSweep, EveryCrashPointRecoversWithAtMostTheTailLost) {
  const FaultKind kind = GetParam();
  // Discovery: run fault-free to learn the workload's op count.
  std::size_t total_ops = 0;
  {
    const ScopedTempDir dir("crash-discovery");
    FaultFs fs(real_fs());
    std::vector<std::size_t> acknowledged;
    run_workload(fs, dir.path(), &acknowledged);
    ASSERT_EQ(acknowledged.size(), kRecords);
    total_ops = fs.ops_seen();
    // Sanity: the workload exercises rotation and compaction, so the
    // sweep has boundaries inside both.
    ASSERT_GT(total_ops, 40u);
  }

  for (std::size_t op = 0; op < total_ops; ++op) {
    SCOPED_TRACE("fault at op " + std::to_string(op));
    const ScopedTempDir dir("crash-sweep");
    FaultPlan plan;
    plan.after_ops = op;
    plan.kind = kind;
    plan.seed = op * 1000003ULL + static_cast<std::uint64_t>(kind) + 1;
    FaultFs fs(real_fs(), plan);

    std::vector<std::size_t> acknowledged;
    bool crashed = false;
    try {
      run_workload(fs, dir.path(), &acknowledged);
    } catch (const CrashError&) {
      crashed = true;
    }
    if (!crashed) {
      // The only uncrashed case: the fault fired inside the store
      // destructor's final sync, where it is deliberately swallowed —
      // by then every record was acknowledged.
      EXPECT_EQ(acknowledged.size(), kRecords);
    }
    check_recovery(dir.path(), acknowledged);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultKinds, PersistCrashSweep,
    ::testing::Values(FaultKind::kCrashBefore, FaultKind::kCrashAfter,
                      FaultKind::kShortWrite, FaultKind::kTornWrite));

TEST(PersistCrash, TransientIoFailuresSurfaceWithoutCorruptingTheStore) {
  // kFailOp: the op fails with IoError but the "filesystem" (and the
  // process) lives on. The store must surface the failure — the record
  // is NOT acknowledged — and keep working: later puts land in a fresh
  // segment, never after the partial tail of the failed one.
  std::size_t total_ops = 0;
  {
    const ScopedTempDir dir("failop-discovery");
    FaultFs fs(real_fs());
    std::vector<std::size_t> acknowledged;
    run_workload(fs, dir.path(), &acknowledged);
    total_ops = fs.ops_seen();
  }

  for (std::size_t op = 0; op < total_ops; ++op) {
    SCOPED_TRACE("transient failure at op " + std::to_string(op));
    const ScopedTempDir dir("failop-sweep");
    FaultPlan plan;
    plan.after_ops = op;
    plan.kind = FaultKind::kFailOp;
    plan.seed = op + 1;
    FaultFs fs(real_fs(), plan);

    StoreOptions options = sweep_options(&fs);
    std::vector<std::size_t> acknowledged;
    std::size_t failed_puts = 0;
    try {
      SegmentStore store(dir.path(), options);
      for (std::size_t i = 0; i < kRecords; ++i) {
        try {
          store.put(record_key(i), record_payload(i, kValueBytes));
          acknowledged.push_back(i);
        } catch (const IoError&) {
          ++failed_puts;  // surfaced, unacknowledged — and we carry on
        }
        if (i == kCompactAt) {
          try {
            store.compact();
          } catch (const IoError&) {
            // A failed compaction leaves the store serving from the old
            // segments; nothing acknowledged is affected.
          }
        }
      }
      // The still-open store serves everything it acknowledged. A
      // transient read failure may surface as IoError, but it must NOT
      // cost the record its index entry: the retry serves it.
      for (const std::size_t i : acknowledged) {
        std::optional<std::string> value;
        try {
          value = store.get(record_key(i));
        } catch (const IoError&) {
          value = store.get(record_key(i));
        }
        ASSERT_EQ(value, record_payload(i, kValueBytes));
      }
    } catch (const IoError&) {
      // The fault fired inside open (constructor): nothing was
      // acknowledged; recovery below must still work.
    }
    EXPECT_LE(failed_puts, 1u);  // the plan fires exactly once

    SegmentStore reopened(dir.path(), sweep_options(nullptr));
    for (const std::size_t i : acknowledged) {
      ASSERT_EQ(reopened.get(record_key(i)), record_payload(i, kValueBytes));
    }
    // Whatever the failed op left behind (a partial frame, a burned
    // segment) is at most scan debris, never served bytes: every record
    // the reopened store DOES serve must be byte-exact.
    for (std::size_t i = 0; i < kRecords; ++i) {
      if (const auto value = reopened.get(record_key(i))) {
        EXPECT_EQ(*value, record_payload(i, kValueBytes));
      }
    }
  }
}

}  // namespace
}  // namespace thermo::persist
