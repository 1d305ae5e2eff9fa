// Bank timing (VaultState::charge_bank and VaultState::write_throttled,
// docs/BACKENDS.md): the clock engine asks about a free bank only, and the
// throttle answers only for pcm_like's vault-wide write gap.
#include <gtest/gtest.h>

#include "core/device.hpp"
#include "tests/core/helpers.hpp"

namespace hmcsim {
namespace {

using test::small_device;

/// A vault of `dc`'s model with free banks and no open rows.
VaultState free_vault(const DeviceConfig& dc) {
  VaultState vault;
  vault.bank_busy_until.assign(dc.banks_per_vault, 0);
  vault.open_row.assign(dc.banks_per_vault, kNoOpenRow);
  vault.timing = dc.timing_backend;
  return vault;
}

// The DRAM models have no vault-wide limit: a free bank takes reads and
// writes alike, whatever was charged to the other banks.
TEST(BackendContract, DramBackendsAdmitEveryClassOnAFreeBank) {
  for (const TimingBackend backend :
       {TimingBackend::HmcDram, TimingBackend::GenericDdr}) {
    SCOPED_TRACE(to_string(backend));
    DeviceConfig dc = small_device();
    dc.timing_backend = backend;
    VaultState vault = free_vault(dc);
    DeviceStats stats;
    vault.charge_bank(dc, 0, /*row=*/3, /*writes=*/true, 10, stats);
    for (const bool writes : {false, true}) {
      EXPECT_FALSE(vault.write_throttled(writes, 10));
      EXPECT_FALSE(vault.write_throttled(writes, 11));
    }
  }
}

// pcm_like's vault-wide write gap holds writes (read-modify-writes among
// them) on a free bank until it closes, and never holds a read.
TEST(BackendContract, PcmThrottlesWritesInsideTheWriteGapOnly) {
  DeviceConfig dc = small_device();
  dc.timing_backend = TimingBackend::PcmLike;
  dc.pcm_read_cycles = 4;
  dc.pcm_write_cycles = 12;
  dc.pcm_write_gap_cycles = 6;
  VaultState vault = free_vault(dc);
  DeviceStats stats;
  EXPECT_FALSE(vault.write_throttled(true, 10));
  vault.charge_bank(dc, 0, /*row=*/0, /*writes=*/true, 10, stats);
  EXPECT_EQ(vault.bank_busy_until[0], 22u);
  // The gap runs [10, 16) on every bank of the vault.
  EXPECT_TRUE(vault.write_throttled(true, 11));
  EXPECT_TRUE(vault.write_throttled(true, 15));
  EXPECT_FALSE(vault.write_throttled(false, 11));
  EXPECT_FALSE(vault.write_throttled(true, 16));
  // A read does not open a gap.
  vault.charge_bank(dc, 3, /*row=*/0, /*writes=*/false, 20, stats);
  EXPECT_EQ(vault.bank_busy_until[3], 24u);
  EXPECT_FALSE(vault.write_throttled(true, 21));
}

}  // namespace
}  // namespace hmcsim
