// The uniform queue structure shared by every queuing point in the device
// hierarchy (paper §IV.A, "Queue Structure").
//
// A physical HMC implementation registers packets in queue slots, each with
// a valid designator and storage for the largest 9-FLIT packet.  The
// crossbar and vault queue depths are chosen by the user at initialization
// time (paper §IV requirement 3, "Flexible Queuing").
//
// `BoundedQueue<Entry>` models one such queue: a fixed-capacity FIFO whose
// entries can also be *removed from the middle*, because the HMC weak
// ordering model allows selected packets to pass others (packets destined
// for ancillary devices may pass those waiting for local vault access, and
// vaults may retire non-head packets whose banks are free — §III.C).
//
// Entries are held in FIFO order in a contiguous array; middle removal is
// O(n) with n <= the configured depth (128 in the paper's experiments),
// which profiles faster than a linked structure at these sizes.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hmcsim {

/// Occupancy statistics every queue keeps; exposed through the trace layer.
struct QueueStats {
  u64 total_pushes{0};
  u64 total_pops{0};
  u64 rejected_full{0};  ///< push attempts refused because the queue was full
  usize high_water{0};   ///< maximum simultaneous occupancy observed
};

template <typename Entry>
class BoundedQueue {
 public:
  BoundedQueue() = default;
  explicit BoundedQueue(usize capacity) : capacity_(capacity) {
    entries_.reserve(capacity);
  }

  [[nodiscard]] usize capacity() const { return capacity_; }
  [[nodiscard]] usize size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }
  [[nodiscard]] usize free_slots() const {
    // Saturating: push_front can transiently overfill (bounced forwards).
    return entries_.size() >= capacity_ ? 0 : capacity_ - entries_.size();
  }

  /// Append at the FIFO back.  Returns false (and counts a rejection) when
  /// every slot is valid — the caller turns this into a stall signal.
  bool push(Entry e) {
    if (full()) {
      ++stats_.rejected_full;
      return false;
    }
    entries_.push_back(std::move(e));
    ++stats_.total_pushes;
    stats_.high_water = std::max(stats_.high_water, entries_.size());
    return true;
  }

  /// Reinstate an entry at the FIFO head, bypassing the capacity check.
  /// Used only to bounce an optimistically removed entry back (the
  /// crossbar's two-phase forward, when other devices filled the
  /// destination before this device's outbox was flushed); the queue may
  /// transiently exceed its capacity until the entry moves on, during which
  /// free_slots() saturates at zero.
  void push_front(Entry e) {
    entries_.insert(entries_.begin(), std::move(e));
    stats_.high_water = std::max(stats_.high_water, entries_.size());
  }

  /// FIFO-ordered access; index 0 is the oldest entry.
  [[nodiscard]] Entry& at(usize i) {
    assert(i < entries_.size());
    return entries_[i];
  }
  [[nodiscard]] const Entry& at(usize i) const {
    assert(i < entries_.size());
    return entries_[i];
  }

  [[nodiscard]] Entry& front() { return at(0); }

  /// Remove the entry at FIFO position `i` (0 == head).  Preserves the
  /// relative order of everything else, which is what keeps the
  /// link-to-bank stream ordering intact when non-head entries retire.
  Entry remove(usize i) {
    assert(i < entries_.size());
    Entry e = std::move(entries_[i]);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    ++stats_.total_pops;
    return e;
  }

  Entry pop_front() { return remove(0); }

  void clear() { entries_.clear(); }

  [[nodiscard]] const QueueStats& stats() const { return stats_; }
  void reset_stats() { stats_ = QueueStats{}; }
  /// Checkpoint-restore path: reinstate previously captured statistics.
  void restore_stats(const QueueStats& s) { stats_ = s; }

  /// Iteration in FIFO order (oldest first).
  [[nodiscard]] auto begin() { return entries_.begin(); }
  [[nodiscard]] auto end() { return entries_.end(); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

 private:
  usize capacity_{0};
  std::vector<Entry> entries_;
  QueueStats stats_;
};

}  // namespace hmcsim
