// OrderedWriter: stream results out in input order as they complete.
//
// The old serve path buffered every record until the whole batch
// finished, then wrote them all — correct, but a 10k-request batch held
// 10k records in memory and the consumer saw nothing until the slowest
// request was done. The writer keeps the ordering contract ("output
// line i answers input line i") while streaming: a record whose index
// is the next unwritten one goes straight to the sink (plus any
// buffered successors it unblocks); out-of-order completions wait in a
// min-ordered buffer sized by the batch's *skew*, not its length.
//
// Under FIFO the buffer stays small (workers finish near input order);
// under LJF the whale is emitted first only if it is line 0 — otherwise
// early small results queue behind it, which is exactly the memory the
// policy trades for makespan. max_buffered() reports the high-water
// mark so the serve summary can show that trade.
//
// push() is thread-safe; the sink is only ever touched under the lock
// and records are written strictly sequentially, so the output bytes
// are identical for any thread count, policy, or completion order.
// push() takes a view and copies the record only when it must wait in
// the buffer: a record written at once (every line of an all-hit batch)
// goes from the caller's string to the sink with no copy.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace thermo::dispatch {

class OrderedWriter {
 public:
  /// Called for each record as it is written (strictly in index order,
  /// under the writer's lock — must not call back into the writer).
  /// Lets front-ends tally per-record facts without re-buffering the
  /// batch.
  using Observer = std::function<void(std::size_t index, std::string_view)>;

  /// Writes `count` records to `out`, one line each ('\n'-terminated).
  /// The stream is borrowed and must outlive the writer.
  OrderedWriter(std::ostream& out, std::size_t count, Observer observer = {});

  OrderedWriter(const OrderedWriter&) = delete;
  OrderedWriter& operator=(const OrderedWriter&) = delete;

  /// Hands over record `index` (0-based, < count, each index exactly
  /// once). Writes immediately when `index` is the next unwritten slot
  /// — draining any buffered successors — and buffers a copy otherwise.
  void push(std::size_t index, std::string_view record);

  /// High-water mark of simultaneously buffered (completed but not yet
  /// writable) records.
  std::size_t max_buffered() const;

  /// Asserts every record was pushed and flushed through. Call once,
  /// after the batch; throws LogicError on a short batch (an index was
  /// never pushed).
  void finish();

 private:
  void write_locked(std::size_t index, std::string_view record);

  std::ostream& out_;
  std::size_t count_;
  Observer observer_;
  mutable std::mutex mutex_;
  std::size_t next_ = 0;  ///< lowest index not yet written
  std::map<std::size_t, std::string> buffered_;
  std::size_t max_buffered_ = 0;
};

}  // namespace thermo::dispatch
