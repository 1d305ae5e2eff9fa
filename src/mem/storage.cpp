#include "mem/storage.hpp"

#include <algorithm>
#include <cstring>

#include "mem/ecc.hpp"

namespace hmcsim {

void SparseStore::release_pages() {
  for (auto& slot : chunks_) {
    const Chunk* chunk = slot.exchange(nullptr, std::memory_order_relaxed);
    if (chunk == nullptr) continue;
    for (const auto& page : *chunk) {
      delete page.load(std::memory_order_relaxed);
    }
    delete chunk;
  }
}

const SparseStore::Page* SparseStore::find_page(u64 page_index) const {
  const Chunk* chunk =
      chunks_[page_index / kChunkPages].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return (*chunk)[page_index % kChunkPages].load(std::memory_order_acquire);
}

SparseStore::Chunk& SparseStore::materialize_chunk(u64 chunk_index) {
  std::atomic<Chunk*>& slot = chunks_[chunk_index];
  Chunk* chunk = slot.load(std::memory_order_acquire);
  if (chunk != nullptr) return *chunk;
  // Same race as a page's below: the loser frees its empty candidate.
  Chunk* fresh = new Chunk();
  if (slot.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *chunk;
}

SparseStore::Page& SparseStore::materialize_page(u64 page_index) {
  std::atomic<Page*>& slot =
      materialize_chunk(page_index / kChunkPages)[page_index % kChunkPages];
  Page* page = slot.load(std::memory_order_acquire);
  if (page != nullptr) return *page;
  // First touch: race to install a zero-filled page.  The loser frees its
  // candidate and adopts the winner's — contents are identical either way,
  // so materialization order cannot affect simulation results.
  Page* fresh = new Page();
  fresh->fill(0);
  if (slot.compare_exchange_strong(page, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    resident_.fetch_add(1, std::memory_order_relaxed);
    return *fresh;
  }
  delete fresh;
  return *page;
}

u64 SparseStore::load_word(u64 word_index) const {
  const u64 addr = word_index * 8;
  const Page* page = find_page(addr / kPageBytes);
  if (page == nullptr) return 0;
  u64 value = 0;
  std::memcpy(&value, page->data() + addr % kPageBytes, 8);
  return value;
}

void SparseStore::store_word(u64 word_index, u64 value) {
  const u64 addr = word_index * 8;
  Page& page = materialize_page(addr / kPageBytes);
  std::memcpy(page.data() + addr % kPageBytes, &value, 8);
}

bool SparseStore::read(u64 addr, std::span<u8> out) const {
  if (addr + out.size() > capacity_ || addr + out.size() < addr) return false;
  usize done = 0;
  while (done < out.size()) {
    const u64 pos = addr + done;
    const u64 page_index = pos / kPageBytes;
    const usize in_page = static_cast<usize>(pos % kPageBytes);
    const usize chunk = std::min(out.size() - done, kPageBytes - in_page);
    if (const Page* page = find_page(page_index)) {
      std::memcpy(out.data() + done, page->data() + in_page, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
  return true;
}

bool SparseStore::write(u64 addr, std::span<const u8> in) {
  if (addr + in.size() > capacity_ || addr + in.size() < addr) return false;
  if (fault_count() != 0) clear_faults_in(addr, in.size());
  usize done = 0;
  while (done < in.size()) {
    const u64 pos = addr + done;
    const u64 page_index = pos / kPageBytes;
    const usize in_page = static_cast<usize>(pos % kPageBytes);
    const usize chunk = std::min(in.size() - done, kPageBytes - in_page);
    Page& page = materialize_page(page_index);
    std::memcpy(page.data() + in_page, in.data() + done, chunk);
    done += chunk;
  }
  return true;
}

bool SparseStore::restore_page(u64 page_index, std::span<const u8> bytes) {
  if (bytes.size() != kPageBytes) return false;
  // Compare indices, not byte products: a forged index near 2^64 / 4096
  // would wrap the product back under the capacity.
  if (page_index >= page_count_) return false;
  Page& page = materialize_page(page_index);
  std::memcpy(page.data(), bytes.data(), kPageBytes);
  return true;
}

bool SparseStore::read_words(u64 addr, std::span<u64> out) const {
  return read(addr, {reinterpret_cast<u8*>(out.data()), out.size() * 8});
}

bool SparseStore::write_words(u64 addr, std::span<const u64> in) {
  return write(addr,
               {reinterpret_cast<const u8*>(in.data()), in.size() * 8});
}

bool SparseStore::plant_fault(u64 addr, std::span<const u32> codeword_bits) {
  if (addr >= capacity_) return false;
  const u64 word = addr / 8;
  std::lock_guard<std::mutex> lock(fault_mutex_);
  FaultRecord& rec = faults_[word];
  for (const u32 bit : codeword_bits) {
    if (bit < ecc::kDataBits) {
      const u64 mask = u64{1} << bit;
      rec.data_flips ^= mask;
      store_word(word, load_word(word) ^ mask);
    } else if (bit < ecc::kCodewordBits) {
      rec.check_flips ^= static_cast<u8>(1u << (bit - ecc::kDataBits));
    }
  }
  if (rec.data_flips == 0 && rec.check_flips == 0) faults_.erase(word);
  fault_count_.store(faults_.size(), std::memory_order_relaxed);
  return true;
}

bool SparseStore::restore_fault(u64 word_index, u64 data_flips,
                                u8 check_flips) {
  if (word_index >= (capacity_ + 7) / 8) return false;  // no wrapping product
  if (data_flips == 0 && check_flips == 0) return false;
  std::lock_guard<std::mutex> lock(fault_mutex_);
  faults_[word_index] = FaultRecord{data_flips, check_flips};
  fault_count_.store(faults_.size(), std::memory_order_relaxed);
  return true;
}

bool SparseStore::has_fault(u64 addr, usize bytes) const {
  if (fault_count() == 0 || bytes == 0) return false;
  std::lock_guard<std::mutex> lock(fault_mutex_);
  const auto it = faults_.lower_bound(addr / 8);
  return it != faults_.end() && it->first <= (addr + bytes - 1) / 8;
}

SparseStore::FaultMap::iterator SparseStore::decode_record(
    FaultMap::iterator it, FaultSummary& out, bool retire_uncorrectable) {
  u64 data = load_word(it->first);
  // The check byte was consistent with the pre-fault data; rebuild it from
  // the ground-truth masks so the codec sees exactly the stored codeword.
  u8 check = static_cast<u8>(ecc::secded_encode(data ^ it->second.data_flips) ^
                             it->second.check_flips);
  switch (ecc::secded_decode(data, check)) {
    case ecc::SecdedOutcome::Corrected:
      ++out.corrected;
      [[fallthrough]];
    case ecc::SecdedOutcome::Clean:
      store_word(it->first, data);
      return faults_.erase(it);
    case ecc::SecdedOutcome::Uncorrectable:
      ++out.uncorrectable;
      if (retire_uncorrectable) {
        store_word(it->first, load_word(it->first) ^ it->second.data_flips);
        return faults_.erase(it);
      }
      return std::next(it);
  }
  return std::next(it);  // unreachable; silences -Werror=return-type
}

SparseStore::FaultSummary SparseStore::check_and_repair(u64 addr,
                                                        usize bytes) {
  FaultSummary out;
  if (fault_count() == 0 || bytes == 0) return out;
  std::lock_guard<std::mutex> lock(fault_mutex_);
  const u64 last = (addr + bytes - 1) / 8;
  auto it = faults_.lower_bound(addr / 8);
  while (it != faults_.end() && it->first <= last) {
    it = decode_record(it, out, /*retire_uncorrectable=*/false);
  }
  fault_count_.store(faults_.size(), std::memory_order_relaxed);
  return out;
}

SparseStore::FaultSummary SparseStore::scrub_span(u64 addr, u64 bytes) {
  FaultSummary out;
  if (fault_count() == 0 || bytes == 0) return out;
  std::lock_guard<std::mutex> lock(fault_mutex_);
  const u64 last = (addr + bytes - 1) / 8;
  auto it = faults_.lower_bound(addr / 8);
  while (it != faults_.end() && it->first <= last) {
    it = decode_record(it, out, /*retire_uncorrectable=*/true);
  }
  fault_count_.store(faults_.size(), std::memory_order_relaxed);
  return out;
}

void SparseStore::clear_faults_in(u64 addr, usize bytes) {
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lock(fault_mutex_);
  const u64 last = (addr + bytes - 1) / 8;
  auto it = faults_.lower_bound(addr / 8);
  while (it != faults_.end() && it->first <= last) {
    store_word(it->first, load_word(it->first) ^ it->second.data_flips);
    it = faults_.erase(it);
  }
  fault_count_.store(faults_.size(), std::memory_order_relaxed);
}

}  // namespace hmcsim
