#include "dispatch/result_memo.hpp"

#include <utility>

#include "util/error.hpp"

namespace thermo::dispatch {

ResultMemo::ResultMemo(std::size_t capacity) : capacity_(capacity) {
  THERMO_REQUIRE(capacity >= 1, "ResultMemo capacity must be >= 1");
}

std::optional<std::string> ResultMemo::find(std::string_view key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second.recency);
  return it->second.record;
}

std::vector<std::optional<std::string>> ResultMemo::find_all(
    const std::vector<std::string_view>& keys, std::size_t /*threads*/) {
  std::vector<std::optional<std::string>> records;
  records.reserve(keys.size());
  for (const std::string_view key : keys) records.push_back(find(key));
  return records;
}

bool ResultMemo::resident(std::string_view key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.contains(key);
}

void ResultMemo::insert(std::string_view key, std::string record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Racing duplicate executions produce identical bytes (the record is
    // a pure function of the key's content); keep the first. A divergent
    // duplicate means some writer broke that purity — caching would then
    // silently serve one of two different answers, so fail loudly.
    THERMO_ENSURE(record == it->second.record,
                  "divergent record inserted for an existing memo key — "
                  "records must be pure functions of their keys");
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    return;
  }
  if (entries_.size() >= capacity_) {
    entries_.erase(std::string_view(lru_.back()));
    lru_.pop_back();
  }
  lru_.emplace_front(key);
  entries_.emplace(std::string_view(lru_.front()),
                   Entry{std::move(record), lru_.begin()});
}

}  // namespace thermo::dispatch
