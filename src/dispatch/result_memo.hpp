// ResultMemo: content-addressed cache of finished result records.
//
// Serve results are pure functions of the *canonical serialized
// request* (that is what makes the whole pipeline byte-deterministic),
// so that serialization doubles as a content address: two requests with
// identical canonical bytes must produce identical records, within one
// batch or across batches. The memo maps that address to the record so
// duplicates cost a lookup instead of a scheduler run.
//
// Lookup hashes the key bytes (std::hash<std::string_view>), but the
// full key is stored and compared too, so a hash collision degrades to
// a plain miss path rather than ever serving the wrong record
// (content-addressed, not hash-trusted).
//
// Like ThermalSolverCache and ScenarioRunner's model cache, capacity is
// LRU-capped: a long-lived server fed ever-fresh requests cannot grow
// memory monotonically; an evicted duplicate is simply recomputed.
// Recency is a splice-maintained list, so find/insert/evict are all
// O(1) — a full cache fed fresh keys must not degrade to scanning
// thousands of entries per insert while workers contend on the mutex.
//
// Concurrency contract (tests/dispatch_test.cpp hammers it): every
// operation is serialized on one mutex, so a record is found exactly
// when it was inserted and not yet evicted, no matter how many workers
// race. What the memo can NOT check by locking is the
// single-writer-per-key *value* semantics it is built on: all writers
// of one key must derive the record from the key's content, so racing
// inserts carry identical bytes and first-insert-wins loses nothing.
// The engine upholds this (one job executes per key); insert() enforces
// it with an identical-bytes check — a divergent record for a present
// key throws LogicError instead of silently keeping either copy.
//
// find(), find_all() and insert() are virtual so a batch engine holding
// a plain `ResultMemo*` can transparently be handed a DiskResultMemo (the
// disk-backed subclass layered on persist::SegmentStore). The engine
// resolves a batch's keys with one find_all() and writes the found
// records itself, in input order on the calling thread. A subclass may
// run the lookups on the pool (DiskResultMemo reads its disk hits
// there), but the outcome must be that of find() called key by key.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace thermo::dispatch {

class ResultMemo {
 public:
  /// Default bound: 4096 records ≈ a few MB of JSONL — roomy for a
  /// serving process, bounded for a long-lived one.
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit ResultMemo(std::size_t capacity = kDefaultCapacity);
  virtual ~ResultMemo() = default;

  ResultMemo(const ResultMemo&) = delete;
  ResultMemo& operator=(const ResultMemo&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// The record stored under `key`, or nullopt. A hit refreshes the
  /// entry's LRU stamp.
  virtual std::optional<std::string> find(std::string_view key);

  /// The records of `keys`, index-aligned: exactly what find() called on
  /// each key in order would return, leaving the memo (records, recency,
  /// counters) as that loop would. `threads` bounds the workers a
  /// subclass may read on (0 = hardware); this class loops over find().
  virtual std::vector<std::optional<std::string>> find_all(
      const std::vector<std::string_view>& keys, std::size_t threads);

  /// Stores `record` under `key` (first insert wins on a racing
  /// duplicate). Evicts the least recently used entry at capacity.
  /// Invariant: a duplicate insert must carry bytes identical to the
  /// resident record — records are pure functions of their keys, which
  /// is the premise that makes first-insert-wins lossless. A divergent
  /// duplicate throws LogicError.
  virtual void insert(std::string_view key, std::string record);

 protected:
  /// Whether `key` is in the memory tier; unlike find(), leaves its
  /// recency alone.
  bool resident(std::string_view key) const;

 private:
  struct Entry {
    std::string record;
    /// Position in lru_ (most recent at the front); list iterators are
    /// stable, so a splice-to-front refresh never invalidates it.
    std::list<std::string>::iterator recency;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<std::string> lru_;  ///< keys, most recently used first
  /// Keyed by string_views into lru_'s nodes (the one owned copy of each
  /// key — list nodes never move), which also gives allocation-free
  /// find().
  std::unordered_map<std::string_view, Entry> entries_;
};

}  // namespace thermo::dispatch
