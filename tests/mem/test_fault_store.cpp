// SparseStore fault sidecar: planted faults are REAL bit flips in the
// stored pages, discovered and repaired (or poisoned) by the SECDED codec.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "mem/storage.hpp"

namespace hmcsim {
namespace {

std::vector<u8> pattern(usize n) {
  std::vector<u8> v(n);
  for (usize i = 0; i < n; ++i) v[i] = static_cast<u8>(i * 7 + 1);
  return v;
}

TEST(FaultStore, SingleBitFaultIsCorrected) {
  SparseStore store(1 << 16);
  const auto data = pattern(16);
  ASSERT_TRUE(store.write(0x100, data));
  const std::array<u32, 1> bits = {5};
  ASSERT_TRUE(store.plant_fault(0x100, bits));
  EXPECT_EQ(store.fault_count(), 1u);
  EXPECT_TRUE(store.has_fault(0x100, 16));

  // The flip is visible in the raw bytes until the codec runs.
  std::vector<u8> raw(16);
  ASSERT_TRUE(store.read(0x100, raw));
  EXPECT_NE(raw, data);

  const SparseStore::FaultSummary sum = store.check_and_repair(0x100, 16);
  EXPECT_EQ(sum.corrected, 1u);
  EXPECT_EQ(sum.uncorrectable, 0u);
  EXPECT_EQ(store.fault_count(), 0u);

  std::vector<u8> back(16);
  ASSERT_TRUE(store.read(0x100, back));
  EXPECT_EQ(back, data);
}

TEST(FaultStore, DoubleBitFaultStaysPoisoned) {
  SparseStore store(1 << 16);
  const auto data = pattern(16);
  ASSERT_TRUE(store.write(0x200, data));
  const std::array<u32, 2> bits = {3, 40};
  ASSERT_TRUE(store.plant_fault(0x200, bits));

  const SparseStore::FaultSummary sum = store.check_and_repair(0x200, 16);
  EXPECT_EQ(sum.corrected, 0u);
  EXPECT_EQ(sum.uncorrectable, 1u);
  // Poisoned: the record stays, and the data is still wrong.
  EXPECT_EQ(store.fault_count(), 1u);
  std::vector<u8> back(16);
  ASSERT_TRUE(store.read(0x200, back));
  EXPECT_NE(back, data);

  // Re-checking keeps reporting it.
  EXPECT_EQ(store.check_and_repair(0x200, 16).uncorrectable, 1u);
}

TEST(FaultStore, ScrubRetiresUncorrectableWords) {
  SparseStore store(1 << 16);
  const auto data = pattern(16);
  ASSERT_TRUE(store.write(0x300, data));
  const std::array<u32, 2> bits = {10, 62};
  ASSERT_TRUE(store.plant_fault(0x300, bits));

  const SparseStore::FaultSummary sum = store.scrub_span(0, 1 << 16);
  EXPECT_EQ(sum.uncorrectable, 1u);
  EXPECT_EQ(store.fault_count(), 0u);  // rebuilt from ground truth
  std::vector<u8> back(16);
  ASSERT_TRUE(store.read(0x300, back));
  EXPECT_EQ(back, data);
}

TEST(FaultStore, WriteSupersedesFault) {
  SparseStore store(1 << 16);
  ASSERT_TRUE(store.write(0x400, pattern(16)));
  const std::array<u32, 2> bits = {1, 2};
  ASSERT_TRUE(store.plant_fault(0x400, bits));
  EXPECT_EQ(store.fault_count(), 1u);

  const auto fresh = pattern(16);
  ASSERT_TRUE(store.write(0x400, fresh));
  EXPECT_EQ(store.fault_count(), 0u);
  std::vector<u8> back(16);
  ASSERT_TRUE(store.read(0x400, back));
  EXPECT_EQ(back, fresh);
  EXPECT_EQ(store.check_and_repair(0x400, 16).uncorrectable, 0u);
}

TEST(FaultStore, CheckFlipsAreVirtual) {
  // A fault in the check bits (positions 64..71) corrupts no stored data;
  // the codec corrects it without touching the word.
  SparseStore store(1 << 16);
  const auto data = pattern(8);
  ASSERT_TRUE(store.write(0x500, data));
  const std::array<u32, 1> bits = {67};
  ASSERT_TRUE(store.plant_fault(0x500, bits));
  std::vector<u8> raw(8);
  ASSERT_TRUE(store.read(0x500, raw));
  EXPECT_EQ(raw, data);  // data bits untouched
  const SparseStore::FaultSummary sum = store.check_and_repair(0x500, 8);
  EXPECT_EQ(sum.corrected, 1u);
  EXPECT_EQ(store.fault_count(), 0u);
}

TEST(FaultStore, DoubleFlipSamePositionCancels) {
  SparseStore store(1 << 16);
  ASSERT_TRUE(store.write(0x600, pattern(8)));
  const std::array<u32, 1> bit = {12};
  ASSERT_TRUE(store.plant_fault(0x600, bit));
  ASSERT_TRUE(store.plant_fault(0x600, bit));  // cancels
  EXPECT_EQ(store.fault_count(), 0u);
  EXPECT_EQ(store.check_and_repair(0x600, 8).corrected, 0u);
}

TEST(FaultStore, RoundTripThroughRestore) {
  SparseStore a(1 << 16);
  ASSERT_TRUE(a.write(0x700, pattern(16)));
  const std::array<u32, 2> bits = {7, 33};
  ASSERT_TRUE(a.plant_fault(0x700, bits));
  const std::array<u32, 1> one = {70};
  ASSERT_TRUE(a.plant_fault(0x708, one));

  // Mirror pages + sidecar into a second store, checkpoint style.
  SparseStore b(1 << 16);
  a.for_each_page([&](u64 page, std::span<const u8> bytes) {
    ASSERT_TRUE(b.write(page * SparseStore::kPageBytes, bytes));
  });
  a.for_each_fault([&](u64 word, u64 data_flips, u8 check_flips) {
    ASSERT_TRUE(b.restore_fault(word, data_flips, check_flips));
  });
  EXPECT_EQ(b.fault_count(), a.fault_count());

  const SparseStore::FaultSummary sa = a.check_and_repair(0x700, 16);
  const SparseStore::FaultSummary sb = b.check_and_repair(0x700, 16);
  EXPECT_EQ(sa.corrected, sb.corrected);
  EXPECT_EQ(sa.uncorrectable, sb.uncorrectable);
}

TEST(FaultStore, RestoreRejectsIndicesThatWrapPastCapacity) {
  // A restored index is compared as an index: index * size must not wrap
  // back under the capacity and pass the bound check.
  SparseStore store(1 << 16);
  const std::vector<u8> page(SparseStore::kPageBytes, 0xAB);
  EXPECT_FALSE(store.restore_page((u64{1} << 52) + 5, page));
  EXPECT_FALSE(store.restore_page(16, page));
  EXPECT_TRUE(store.restore_page(15, page));
  EXPECT_FALSE(store.restore_fault((u64{1} << 61) + 1, 1, 0));
  EXPECT_FALSE(store.restore_fault(8192, 1, 0));
  EXPECT_TRUE(store.restore_fault(8191, 1, 0));
}

TEST(FaultStore, ClearDropsFaults) {
  SparseStore store(1 << 16);
  ASSERT_TRUE(store.write(0x800, pattern(8)));
  const std::array<u32, 1> bit = {0};
  ASSERT_TRUE(store.plant_fault(0x800, bit));
  store.clear();
  EXPECT_EQ(store.fault_count(), 0u);
}

}  // namespace
}  // namespace hmcsim
