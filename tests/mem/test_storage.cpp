#include "mem/storage.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "common/random.hpp"

namespace hmcsim {
namespace {

TEST(SparseStore, UnwrittenMemoryReadsZero) {
  SparseStore store(1 << 20);
  std::vector<u8> buf(64, 0xFF);
  ASSERT_TRUE(store.read(0x1234, buf));
  for (const u8 b : buf) EXPECT_EQ(b, 0);
  EXPECT_EQ(store.resident_pages(), 0u);  // reads must not materialize pages
}

TEST(SparseStore, WriteReadRoundTrip) {
  SparseStore store(1 << 20);
  std::vector<u8> data(64);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 3);
  ASSERT_TRUE(store.write(0x400, data));
  std::vector<u8> back(64);
  ASSERT_TRUE(store.read(0x400, back));
  EXPECT_EQ(back, data);
}

TEST(SparseStore, PageStraddlingAccess) {
  SparseStore store(1 << 20);
  std::vector<u8> data(256);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  // Write across the 4 KiB page boundary.
  const u64 addr = SparseStore::kPageBytes - 100;
  ASSERT_TRUE(store.write(addr, data));
  EXPECT_EQ(store.resident_pages(), 2u);
  std::vector<u8> back(256);
  ASSERT_TRUE(store.read(addr, back));
  EXPECT_EQ(back, data);
}

TEST(SparseStore, OutOfRangeRejected) {
  SparseStore store(4096);
  std::vector<u8> buf(16);
  EXPECT_FALSE(store.read(4096, buf));
  EXPECT_FALSE(store.write(4090, buf));  // spills past the end
  EXPECT_TRUE(store.write(4080, buf));   // exactly reaches the end
}

TEST(SparseStore, OverflowingRangeRejected) {
  SparseStore store(~u64{0});
  std::vector<u8> buf(16);
  EXPECT_FALSE(store.read(~u64{0} - 4, buf));  // addr + size wraps
}

TEST(SparseStore, WordHelpersAreLittleEndian) {
  SparseStore store(1 << 16);
  const u64 word = 0x0123456789abcdefull;
  ASSERT_TRUE(store.write_words(0x100, {&word, 1}));
  std::vector<u8> bytes(8);
  ASSERT_TRUE(store.read(0x100, bytes));
  EXPECT_EQ(bytes[0], 0xef);
  EXPECT_EQ(bytes[7], 0x01);
  u64 back = 0;
  ASSERT_TRUE(store.read_words(0x100, {&back, 1}));
  EXPECT_EQ(back, word);
}

TEST(SparseStore, PartialOverwrite) {
  SparseStore store(1 << 16);
  std::vector<u8> a(32, 0xAA);
  ASSERT_TRUE(store.write(0, a));
  std::vector<u8> b(8, 0xBB);
  ASSERT_TRUE(store.write(8, b));
  std::vector<u8> back(32);
  ASSERT_TRUE(store.read(0, back));
  for (usize i = 0; i < 32; ++i) {
    EXPECT_EQ(back[i], (i >= 8 && i < 16) ? 0xBB : 0xAA) << i;
  }
}

TEST(SparseStore, ClearReleasesPagesAndZeroes) {
  SparseStore store(1 << 20);
  std::vector<u8> data(16, 0x5A);
  ASSERT_TRUE(store.write(0, data));
  EXPECT_GT(store.resident_pages(), 0u);
  store.clear();
  EXPECT_EQ(store.resident_pages(), 0u);
  std::vector<u8> back(16, 0xFF);
  ASSERT_TRUE(store.read(0, back));
  for (const u8 b : back) EXPECT_EQ(b, 0);
}

TEST(SparseStore, SparsityLargeCapacitySmallFootprint) {
  // An 8 GB device with a handful of touched blocks must stay tiny.
  SparseStore store(u64{8} << 30);
  SplitMix64 rng(1);
  for (int i = 0; i < 100; ++i) {
    const u64 addr = (rng.next_below(store.capacity() / 64)) * 64;
    const u64 word = rng.next();
    ASSERT_TRUE(store.write_words(addr, {&word, 1}));
  }
  EXPECT_LE(store.resident_pages(), 100u);
}

// The page table grows a chunk at a time, on the first write into each.
// Pages written into a later chunk first must still come back in ascending
// index order (the order checkpointing walks), and the restore bound is
// the capacity's last page, whichever chunks exist.
TEST(SparseStore, PagesInTwoChunksIterateInIndexOrder) {
  // Two full chunks and a partial third one.
  constexpr u64 kPages = 2 * SparseStore::kChunkPages + 3;
  SparseStore store(kPages * SparseStore::kPageBytes);
  const u64 written[] = {SparseStore::kChunkPages + 7, 5,
                         SparseStore::kChunkPages, 4};
  for (const u64 page : written) {
    const u64 tag = page;
    ASSERT_TRUE(store.write_words(page * SparseStore::kPageBytes, {&tag, 1}));
  }
  EXPECT_EQ(store.resident_pages(), 4u);

  std::vector<u64> order;
  store.for_each_page([&](u64 page, std::span<const u8> bytes) {
    ASSERT_EQ(bytes.size(), SparseStore::kPageBytes);
    u64 tag = 0;
    std::memcpy(&tag, bytes.data(), sizeof tag);
    EXPECT_EQ(tag, page);
    order.push_back(page);
  });
  const std::vector<u64> ascending = {4, 5, SparseStore::kChunkPages,
                                      SparseStore::kChunkPages + 7};
  EXPECT_EQ(order, ascending);

  // No write touched the partial last chunk: its last page restores, and
  // one past it is refused although the chunk would have room for it.
  const std::vector<u8> page(SparseStore::kPageBytes, 0xC3);
  EXPECT_FALSE(store.restore_page(kPages, page));
  EXPECT_TRUE(store.restore_page(kPages - 1, page));
  std::vector<u8> back(16);
  ASSERT_TRUE(store.read((kPages - 1) * SparseStore::kPageBytes, back));
  for (const u8 b : back) EXPECT_EQ(b, 0xC3);
  EXPECT_EQ(store.resident_pages(), 5u);
}

TEST(SparseStore, RandomizedReadYourWrites) {
  SparseStore store(1 << 22);
  SplitMix64 rng(99);
  // Model: shadow map of written 16-byte blocks.
  std::vector<std::pair<u64, std::array<u64, 2>>> shadow;
  for (int i = 0; i < 500; ++i) {
    const u64 addr = rng.next_below(store.capacity() / 16) * 16;
    const std::array<u64, 2> value = {rng.next(), rng.next()};
    ASSERT_TRUE(store.write_words(addr, value));
    shadow.emplace_back(addr, value);
  }
  // Later writes to the same block win; walk the shadow log backwards.
  for (auto it = shadow.rbegin(); it != shadow.rend(); ++it) {
    bool superseded = false;
    for (auto jt = shadow.rbegin(); jt != it; ++jt) {
      if (jt->first == it->first) {
        superseded = true;
        break;
      }
    }
    if (superseded) continue;
    std::array<u64, 2> back{};
    ASSERT_TRUE(store.read_words(it->first, back));
    EXPECT_EQ(back, it->second);
  }
}

}  // namespace
}  // namespace hmcsim
