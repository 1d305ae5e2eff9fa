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
// As in the hardware, arbitration changes which slot is served next, not
// where a packet sits: an entry stays in its slot from push to removal.
// The FIFO order lives in a separate array of 8-byte handles, each naming a
// slot plus a caller-chosen `key` (vault queues store the entry's bank, so
// the vault scan can test its bank masks without touching the slot).  The
// first size() handles are the queue in FIFO order; the rest name free
// slots.  Middle removal is O(n) handle moves with n <= the configured
// depth (128 in the paper's experiments), never an entry move.
//
// A queue may also report its accepted pushes to its owner
// (`count_pushes_into`): it counts them into a counter the owner shares
// across queues, which the idle fast-forward engine compares once per
// device instead of re-walking every queue, and it may set the owner's bit
// for it in a shared mask, which is how a vault queue marks its vault
// active.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
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
  /// One FIFO position: the slot holding the entry, and its key.
  struct Handle {
    u32 slot;
    u32 key;
  };

  /// Walks the handles in FIFO order and yields the entries they name
  /// (what range-for needs).
  template <typename E>
  class Iterator {
   public:
    Iterator(E* slots, const Handle* handle) : slots_(slots), handle_(handle) {}
    E& operator*() const { return slots_[handle_->slot]; }
    Iterator& operator++() {
      ++handle_;
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return handle_ == other.handle_;
    }

   private:
    E* slots_;
    const Handle* handle_;
  };

 public:
  BoundedQueue() = default;
  /// Reserves every slot and handle up front (two allocations); a slot's
  /// entry is constructed the first time the slot is used.
  explicit BoundedQueue(usize capacity) : capacity_(capacity) {
    slots_.reserve(capacity);
    order_.reserve(capacity);
  }

  [[nodiscard]] usize capacity() const { return capacity_; }
  [[nodiscard]] usize size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ >= capacity_; }
  [[nodiscard]] usize free_slots() const {
    // Saturating: push_front can transiently overfill (bounced forwards).
    return size_ >= capacity_ ? 0 : capacity_ - size_;
  }

  /// True when every slot is valid, counting the refusal as a failed push
  /// does: a caller may turn an entry away before it builds it.
  bool refuse_if_full() {
    if (!full()) return false;
    ++stats_.rejected_full;
    return true;
  }

  /// Append at the FIFO back with the given key.  Returns false (and counts
  /// a rejection) when every slot is valid — the caller turns this into a
  /// stall signal.
  bool push(Entry e, u32 key = 0) {
    if (refuse_if_full()) return false;
    occupy(std::move(e), key);
    ++stats_.total_pushes;
    return true;
  }

  /// Reinstate an entry at the FIFO head, bypassing the capacity check.
  /// Used only to bounce an optimistically removed entry back (the
  /// crossbar's two-phase forward, when other devices filled the
  /// destination before this device's outbox was flushed); the queue may
  /// transiently exceed its capacity until the entry moves on, during which
  /// free_slots() saturates at zero.  Overfilling grows the slot storage,
  /// which moves every entry: no reference from at(), front() or an
  /// iterator may be held across this call.
  void push_front(Entry e, u32 key = 0) {
    occupy(std::move(e), key);
    const auto last = order_.begin() + static_cast<std::ptrdiff_t>(size_);
    std::rotate(order_.begin(), last - 1, last);
  }

  /// FIFO-ordered access; index 0 is the oldest entry.
  [[nodiscard]] Entry& at(usize i) {
    assert(i < size_);
    return slots_[order_[i].slot];
  }
  [[nodiscard]] const Entry& at(usize i) const {
    assert(i < size_);
    return slots_[order_[i].slot];
  }
  /// The key the entry at FIFO position `i` was pushed with.
  [[nodiscard]] u32 key(usize i) const {
    assert(i < size_);
    return order_[i].key;
  }

  [[nodiscard]] Entry& front() { return at(0); }

  /// Remove the entry at FIFO position `i` (0 == head).  Preserves the
  /// relative order of everything else, which is what keeps the
  /// link-to-bank stream ordering intact when non-head entries retire.
  /// Only handles shift; every other entry stays in its slot.
  Entry remove(usize i) {
    assert(i < size_);
    const Handle freed = order_[i];
    Entry e = std::move(slots_[freed.slot]);
    std::copy(order_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
              order_.begin() + static_cast<std::ptrdiff_t>(size_),
              order_.begin() + static_cast<std::ptrdiff_t>(i));
    order_[--size_] = freed;
    ++stats_.total_pops;
    return e;
  }

  Entry pop_front() { return remove(0); }

  /// Destroy every entry; the reserved storage is kept.
  void clear() {
    slots_.clear();
    order_.clear();
    size_ = 0;
  }

  /// Count every accepted push and push_front into `*counter` from now on,
  /// and, when `marks` is given, set the bits of `mark` in `*marks` on each.
  /// A refused push, a removal and clear() neither count nor mark, and a
  /// null `counter` turns both off.  Both targets must outlive the queue,
  /// and a moved or copied queue keeps reporting to them.
  void count_pushes_into(u64* counter, u64* marks = nullptr, u64 mark = 0) {
    push_count_ = counter;
    // Without an owner mask an empty mark lands on the counter, so a push
    // tests one pointer, not two: the push path stays small enough to
    // inline into the stages.
    marks_ = marks != nullptr ? marks : counter;
    mark_ = marks != nullptr ? mark : 0;
  }

  [[nodiscard]] const QueueStats& stats() const { return stats_; }
  void reset_stats() { stats_ = QueueStats{}; }
  /// Checkpoint-restore path: reinstate previously captured statistics.
  void restore_stats(const QueueStats& s) { stats_ = s; }

  /// Iteration in FIFO order (oldest first).
  using iterator = Iterator<Entry>;
  using const_iterator = Iterator<const Entry>;
  [[nodiscard]] iterator begin() { return {slots_.data(), order_.data()}; }
  [[nodiscard]] iterator end() {
    return {slots_.data(), order_.data() + size_};
  }
  [[nodiscard]] const_iterator begin() const {
    return {slots_.data(), order_.data()};
  }
  [[nodiscard]] const_iterator end() const {
    return {slots_.data(), order_.data() + size_};
  }

 private:
  /// Store `e` in a free slot and append its handle at position size().
  /// A freed slot is reused (most recently freed first); a slot never used
  /// before is constructed here.
  void occupy(Entry&& e, u32 key) {
    if (size_ < slots_.size()) {
      Handle& h = order_[size_];
      slots_[h.slot] = std::move(e);
      h.key = key;
    } else {
      slots_.push_back(std::move(e));
      order_.push_back(Handle{static_cast<u32>(slots_.size() - 1), key});
    }
    ++size_;
    stats_.high_water = std::max(stats_.high_water, size_);
    if (push_count_ != nullptr) {
      ++*push_count_;
      *marks_ |= mark_;
    }
  }

  usize capacity_{0};
  usize size_{0};
  /// Shared push counter (null when not reported) and owner mask (see
  /// count_pushes_into).
  u64* push_count_{nullptr};
  u64* marks_{nullptr};
  u64 mark_{0};
  /// Entry storage; every slot in here has been constructed.
  std::vector<Entry> slots_;
  /// slots_.size() handles: FIFO order, then the free slots.
  std::vector<Handle> order_;
  QueueStats stats_;
};

}  // namespace hmcsim
