// The VaultTimingBackend contract (src/backend/timing_backend.hpp): the
// clock engine owns bank occupancy, so gate() is asked only about a free
// bank, and it answers only for backend-wide limits.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "backend/timing_backend.hpp"
#include "core/device.hpp"
#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

using test::small_device;

struct CallCounts {
  u64 gates{0};
  u64 busy_gates{0};  ///< gate() calls about a bank still busy at `now`
  u64 issues{0};
};

/// Delegates to a vault's real backend and counts what the engine asks it.
class CountingBackend final : public VaultTimingBackend {
 public:
  CountingBackend(std::unique_ptr<VaultTimingBackend> inner, CallCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  TimingBackend kind() const override { return inner_->kind(); }
  void reset() override { inner_->reset(); }

  BankGate gate(const VaultState& vault, u32 bank, AccessClass access,
                Cycle now) const override {
    ++counts_->gates;
    if (vault.bank_busy_until[bank] > now) ++counts_->busy_gates;
    return inner_->gate(vault, bank, access, now);
  }

  void issue(VaultState& vault, u32 bank, u64 row, AccessClass access,
             Cycle now, DeviceStats& stats) override {
    ++counts_->issues;
    inner_->issue(vault, bank, row, access, now, stats);
  }

  void refresh(VaultState& vault, Cycle now, u32 busy_cycles) override {
    inner_->refresh(vault, now, busy_cycles);
  }

 private:
  std::unique_ptr<VaultTimingBackend> inner_;
  CallCounts* counts_;
};

// A random load through 16-deep vault queues queues several requests per
// bank, so most cycles hold heads of busy banks and entries behind a head.
// The engine must keep every one of them from the backend, and make
// exactly one gate() per ready head on a free bank: one per retire, plus
// one per throttled write and per response-queue stall.
TEST(BackendContract, GateIsAskedOnlyAboutFreeBanks) {
  for (const TimingBackend backend :
       {TimingBackend::HmcDram, TimingBackend::GenericDdr,
        TimingBackend::PcmLike}) {
    SCOPED_TRACE(to_string(backend));
    DeviceConfig dc = small_device();
    dc.vault_depth = 16;
    dc.bank_busy_cycles = 6;
    dc.timing_backend = backend;
    dc.pcm_write_gap_cycles = 6;
    Simulator sim = test::make_simple_sim(dc);
    CallCounts counts;
    for (VaultState& vault : sim.device(0).vaults) {
      vault.timing =
          std::make_unique<CountingBackend>(std::move(vault.timing), &counts);
    }

    GeneratorConfig gc;
    gc.capacity_bytes = sim.config().device.derived_capacity();
    gc.seed = 99;
    RandomAccessGenerator gen(gc);
    DriverConfig dcfg;
    dcfg.total_requests = 3000;
    dcfg.max_cycles = 400000;
    HostDriver driver(sim, gen, dcfg);
    const DriverResult r = driver.run();
    EXPECT_EQ(r.completed, dcfg.total_requests);
    EXPECT_EQ(r.errors, 0u);

    const DeviceStats s = sim.total_stats();
    EXPECT_GT(s.bank_conflicts, 0u) << "the load must queue behind banks";
    EXPECT_EQ(counts.busy_gates, 0u)
        << "gate() was asked about a bank the engine knows is busy";
    EXPECT_EQ(counts.issues, s.retired());
    EXPECT_EQ(counts.gates, s.retired() + s.pcm_write_throttle_stalls +
                                s.vault_rsp_stalls);
  }
}

/// A vault with `banks` free banks and no open rows.
VaultState free_vault(u32 banks) {
  VaultState vault;
  vault.bank_busy_until.assign(banks, 0);
  vault.open_row.assign(banks, kNoOpenRow);
  return vault;
}

// The DRAM backends have no backend-wide limit: a free bank takes every
// access class, whatever was issued to the other banks.
TEST(BackendContract, DramBackendsAdmitEveryClassOnAFreeBank) {
  for (const TimingBackend backend :
       {TimingBackend::HmcDram, TimingBackend::GenericDdr}) {
    SCOPED_TRACE(to_string(backend));
    DeviceConfig dc = small_device();
    dc.timing_backend = backend;
    const auto timing = make_timing_backend(dc, 0);
    VaultState vault = free_vault(dc.banks_per_vault);
    DeviceStats stats;
    timing->issue(vault, 0, /*row=*/3, AccessClass::Write, 10, stats);
    for (const AccessClass access :
         {AccessClass::Read, AccessClass::Write, AccessClass::Rmw}) {
      EXPECT_EQ(timing->gate(vault, 1, access, 10), BankGate::Ready);
      EXPECT_EQ(timing->gate(vault, 1, access, 11), BankGate::Ready);
    }
  }
}

// pcm_like's vault-wide write gap holds writes and read-modify-writes on a
// free bank until it closes, and never holds a read.
TEST(BackendContract, PcmThrottlesWritesInsideTheWriteGapOnly) {
  DeviceConfig dc = small_device();
  dc.timing_backend = TimingBackend::PcmLike;
  dc.pcm_read_cycles = 4;
  dc.pcm_write_cycles = 12;
  dc.pcm_write_gap_cycles = 6;
  const auto timing = make_timing_backend(dc, 0);
  VaultState vault = free_vault(dc.banks_per_vault);
  DeviceStats stats;
  EXPECT_EQ(timing->gate(vault, 1, AccessClass::Write, 10), BankGate::Ready);
  timing->issue(vault, 0, /*row=*/0, AccessClass::Write, 10, stats);
  // The gap runs [10, 16) on every bank of the vault.
  EXPECT_EQ(timing->gate(vault, 1, AccessClass::Write, 11),
            BankGate::Throttled);
  EXPECT_EQ(timing->gate(vault, 2, AccessClass::Rmw, 15),
            BankGate::Throttled);
  EXPECT_EQ(timing->gate(vault, 1, AccessClass::Read, 11), BankGate::Ready);
  EXPECT_EQ(timing->gate(vault, 1, AccessClass::Write, 16), BankGate::Ready);
  // A read does not open a gap.
  timing->issue(vault, 3, /*row=*/0, AccessClass::Read, 20, stats);
  EXPECT_EQ(timing->gate(vault, 1, AccessClass::Write, 21), BankGate::Ready);
}

}  // namespace
}  // namespace hmcsim
