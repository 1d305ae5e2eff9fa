// Sparse backing store for simulated DRAM contents.
//
// An 8 GB device cannot be eagerly allocated on a development host, and the
// paper's random-access workloads touch only a fraction of the address
// space.  `SparseStore` allocates 4 KiB pages on first write; reads of
// never-written memory return zeros (matching a device reset state).
//
// The store is indexed by the device-local 34-bit physical address.  The
// vault pipeline performs all accesses in 16-byte blocks (the HMC vault
// controller's block granularity), but arbitrary byte spans are supported
// for host-side convenience and tests.
//
// The page table has two levels: a directory of chunk pointers, sized at
// construction, and chunks of kChunkPages page pointers, each allocated on
// the first write into its 2 MiB of address space.  A store that is never
// written (model_data off) costs only the directory, 32 KiB for an 8 GB
// cube.  The table's index order is the page order, so page iteration
// is deterministic by construction (ascending index), which checkpointing
// relies on.
//
// Concurrency: the clock engine is serial, but the store stays safe for
// callers that access it from several threads at once, provided each
// thread works on its own vaults' blocks (a 4 KiB page spans many vaults'
// interleaved blocks).  Every table slot is an atomic pointer: lookups are
// lock-free loads, and first-touch materialization of a chunk or a page is
// a compare-exchange (the loser frees its empty candidate, so contents are
// identical regardless of which thread wins).
//
// DRAM fault domain: faults are planted per 64-bit word as real bit flips in
// the stored data plus a sidecar record of the ground-truth flip masks.  The
// sidecar lets discovery (a demand read or the background scrubber) rebuild
// the word's SECDED check byte and run a genuine syndrome decode — a
// "corrected" SBE is an actual codec repair, an uncorrectable DBE an actual
// detection, not a counter bump.  Writes overwrite faults (fresh data means
// fresh check bits).  The sidecar map is guarded by a mutex (under the
// same one-thread-per-vault rule the lock protects map structure, never
// logical state), and the hot-path "any faults at all?" gate is a relaxed
// atomic counter — with no faults planted every fault hook is a single
// load, so the RAS-off cost stays ~0.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace hmcsim {

class SparseStore {
 public:
  static constexpr usize kPageBytes = 4096;
  /// Pages per page-table chunk: 4 KiB of pointers covering 2 MiB.
  static constexpr usize kChunkPages = 512;

  /// Result of running the SECDED codec over a span's fault records.
  struct FaultSummary {
    u32 corrected = 0;      ///< single-bit errors repaired in place
    u32 uncorrectable = 0;  ///< double-bit (or worse) errors detected
  };

  explicit SparseStore(u64 capacity_bytes)
      : capacity_(capacity_bytes),
        page_count_((capacity_bytes + kPageBytes - 1) / kPageBytes),
        chunks_((page_count_ + kChunkPages - 1) / kChunkPages) {}

  ~SparseStore() { release_pages(); }

  SparseStore(const SparseStore&) = delete;
  SparseStore& operator=(const SparseStore&) = delete;

  [[nodiscard]] u64 capacity() const { return capacity_; }

  /// Number of pages currently materialized (observability / tests).
  [[nodiscard]] usize resident_pages() const {
    return resident_.load(std::memory_order_relaxed);
  }

  /// Read `out.size()` bytes at `addr`.  Returns false when the range
  /// exceeds capacity.  Unwritten bytes read as zero.
  bool read(u64 addr, std::span<u8> out) const;

  /// Write `in.size()` bytes at `addr`.  Returns false when out of range.
  /// Any fault records overlapping the written words are cleared first
  /// (their planted flips are backed out, then the new data lands).
  bool write(u64 addr, std::span<const u8> in);

  /// 64-bit word helpers used by the vault pipeline (little-endian).
  bool read_words(u64 addr, std::span<u64> out) const;
  bool write_words(u64 addr, std::span<const u64> in);

  /// Reset to the zero-filled state, releasing all pages and faults.
  /// Not thread-safe; callers quiesce the clock engine first.
  void clear() {
    release_pages();
    resident_.store(0, std::memory_order_relaxed);
    faults_.clear();
    fault_count_.store(0, std::memory_order_relaxed);
  }

  // --- DRAM fault domain ----------------------------------------------

  /// Flip the given codeword bit positions of the 64-bit word containing
  /// `addr`.  Positions 0..63 flip stored data bits; 64..71 flip the word's
  /// (virtual) SECDED check bits.  Flipping the same position twice cancels.
  /// Returns false when `addr` is out of range.
  bool plant_fault(u64 addr, std::span<const u32> codeword_bits);

  /// Run the SECDED codec over every faulted word overlapping
  /// [addr, addr+bytes).  Corrected words are repaired in the store and
  /// their records erased; uncorrectable words stay poisoned so subsequent
  /// reads keep failing until overwritten.
  FaultSummary check_and_repair(u64 addr, usize bytes);

  /// Scrubber variant of check_and_repair: uncorrectable words are also
  /// rebuilt from the ground-truth masks and their records dropped,
  /// modeling page retirement + rebuild after the scrubber reports them.
  FaultSummary scrub_span(u64 addr, u64 bytes);

  /// Outstanding (undiscovered or poisoned) fault records.  The count may
  /// be momentarily stale while another thread plants or repairs faults in
  /// ITS OWN address range; a vault's own faults are always visible to it.
  [[nodiscard]] usize fault_count() const {
    return fault_count_.load(std::memory_order_relaxed);
  }

  /// True when any fault record overlaps [addr, addr+bytes).
  [[nodiscard]] bool has_fault(u64 addr, usize bytes) const;

  /// Visit every fault record in ascending word order (checkpointing).
  /// Not thread-safe against concurrent fault mutation; checkpoint-time
  /// only (the clock engine is quiescent between cycles).
  template <typename Fn>  // Fn(u64 word_index, u64 data_flips, u8 check_flips)
  void for_each_fault(Fn&& fn) const {
    for (const auto& [word, rec] : faults_) {
      fn(word, rec.data_flips, rec.check_flips);
    }
  }

  /// Re-create one fault record verbatim (checkpoint restore; the flipped
  /// data bits are already present in the restored pages).  Returns false
  /// when the word lies beyond capacity or both masks are zero.
  bool restore_fault(u64 word_index, u64 data_flips, u8 check_flips);

  /// Visit every materialized page in ascending index order (for
  /// checkpointing).  Pages are kPageBytes long.
  template <typename Fn>  // Fn(u64 page_index, std::span<const u8> bytes)
  void for_each_page(Fn&& fn) const {
    for (usize c = 0; c < chunks_.size(); ++c) {
      const Chunk* chunk = chunks_[c].load(std::memory_order_acquire);
      if (chunk == nullptr) continue;
      for (usize i = 0; i < kChunkPages; ++i) {
        if (const Page* page = (*chunk)[i].load(std::memory_order_acquire)) {
          fn(u64{c} * kChunkPages + i,
             std::span<const u8>(page->data(), kPageBytes));
        }
      }
    }
  }

  /// Materialize one page with exact contents (for checkpoint restore).
  /// Returns false when the page lies beyond capacity or the span is not
  /// kPageBytes long.
  bool restore_page(u64 page_index, std::span<const u8> bytes);

 private:
  using Page = std::array<u8, kPageBytes>;
  /// Value-initialized: every page pointer starts null.
  using Chunk = std::array<std::atomic<Page*>, kChunkPages>;

  struct FaultRecord {
    u64 data_flips = 0;  ///< xor mask currently applied to the stored word
    u8 check_flips = 0;  ///< xor mask applied to the virtual check byte
  };
  // Ordered so scrub windows and checkpoints walk words deterministically.
  using FaultMap = std::map<u64, FaultRecord>;

  [[nodiscard]] const Page* find_page(u64 page_index) const;
  Chunk& materialize_chunk(u64 chunk_index);
  Page& materialize_page(u64 page_index);
  void release_pages();

  /// Raw aligned-word access that bypasses the fault hooks.
  [[nodiscard]] u64 load_word(u64 word_index) const;
  void store_word(u64 word_index, u64 value);

  /// Decode one record; repairs/erases per the rules above.  Returns the
  /// iterator past the (possibly erased) record.  Caller holds fault_mutex_.
  FaultMap::iterator decode_record(FaultMap::iterator it, FaultSummary& out,
                                   bool retire_uncorrectable);

  /// Back planted flips out of words overlapping [addr, addr+bytes) and
  /// drop their records (a write is about to supersede them).
  void clear_faults_in(u64 addr, usize bytes);

  u64 capacity_;
  u64 page_count_;  ///< pages the capacity spans (the restore bound)
  /// Page directory: chunk c holds pages [c, c + 1) * kChunkPages, or is
  /// null when none of them was ever written (they all read as zero).
  std::vector<std::atomic<Chunk*>> chunks_;
  std::atomic<usize> resident_{0};
  FaultMap faults_;
  std::atomic<usize> fault_count_{0};
  mutable std::mutex fault_mutex_;
};

}  // namespace hmcsim
