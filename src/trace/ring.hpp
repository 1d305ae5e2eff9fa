// A bounded window of trace records: keeps the newest `depth` records and
// hands them back oldest first.  Backs the flight recorder's per-device
// rings and MemorySink's bounded mode.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "trace/event.hpp"

namespace hmcsim {

class TraceRing {
 public:
  /// depth 0 keeps every record.
  explicit TraceRing(usize depth = 0) : depth_(depth) {}

  void push(const TraceRecord& rec) {
    ++total_;
    if (depth_ == 0 || slots_.size() < depth_) {
      slots_.push_back(rec);
      return;
    }
    // Full: overwrite the oldest record, which sits at head_.
    slots_[head_] = rec;
    head_ = head_ + 1 == depth_ ? 0 : head_ + 1;
  }

  /// Records ever pushed (exceeds size() once the ring wraps).
  [[nodiscard]] u64 total() const { return total_; }
  /// Records currently held: min(total(), depth) for a bounded ring.
  [[nodiscard]] usize size() const { return slots_.size(); }

  /// The held records, oldest first.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const {
    std::vector<TraceRecord> out(slots_.size());
    std::rotate_copy(slots_.begin(),
                     slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                     slots_.end(), out.begin());
    return out;
  }

  void clear() {
    slots_.clear();
    head_ = 0;
    total_ = 0;
  }

 private:
  usize depth_;
  usize head_{0};  ///< oldest slot once the ring is full
  u64 total_{0};
  std::vector<TraceRecord> slots_;
};

}  // namespace hmcsim
