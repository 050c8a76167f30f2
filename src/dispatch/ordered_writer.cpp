#include "dispatch/ordered_writer.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "util/error.hpp"

namespace thermo::dispatch {

OrderedWriter::OrderedWriter(std::ostream& out, std::size_t count,
                             Observer observer)
    : out_(out), count_(count), observer_(std::move(observer)) {}

void OrderedWriter::write_locked(std::size_t index, std::string_view record) {
  out_ << record << '\n';
  if (observer_) observer_(index, record);
}

void OrderedWriter::push(std::size_t index, std::string_view record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  THERMO_REQUIRE(index < count_, "OrderedWriter index out of range");
  THERMO_REQUIRE(index >= next_ && buffered_.find(index) == buffered_.end(),
                 "OrderedWriter index pushed twice");
  if (index != next_) {
    buffered_.emplace(index, record);
    max_buffered_ = std::max(max_buffered_, buffered_.size());
    return;
  }
  write_locked(index, record);
  ++next_;
  // Drain every buffered successor this push unblocked.
  for (auto it = buffered_.begin();
       it != buffered_.end() && it->first == next_;
       it = buffered_.erase(it)) {
    write_locked(it->first, it->second);
    ++next_;
  }
}

std::size_t OrderedWriter::max_buffered() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_buffered_;
}

void OrderedWriter::finish() {
  const std::lock_guard<std::mutex> lock(mutex_);
  THERMO_ENSURE(next_ == count_ && buffered_.empty(),
                "OrderedWriter finished with unwritten records");
}

}  // namespace thermo::dispatch
