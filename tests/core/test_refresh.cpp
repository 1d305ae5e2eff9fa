// DRAM refresh model: staggered per-vault refresh windows (tREFI/tRFC)
// take banks offline without losing or reordering any traffic.
#include <gtest/gtest.h>

#include <vector>

#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

using test::small_device;

TEST(Refresh, DisabledByDefault) {
  Simulator sim = test::make_simple_sim();
  for (int i = 0; i < 200; ++i) sim.clock();
  EXPECT_EQ(sim.total_stats().refreshes, 0u);
}

TEST(Refresh, IssuesAtTheConfiguredRate) {
  DeviceConfig dc = small_device();
  dc.refresh_interval_cycles = 100;
  dc.refresh_busy_cycles = 10;
  Simulator sim = test::make_simple_sim(dc);
  for (int i = 0; i < 1000; ++i) sim.clock();
  // 16 vaults x ~10 intervals each.
  EXPECT_NEAR(static_cast<double>(sim.total_stats().refreshes), 160.0, 16.0);
}

TEST(Refresh, IdleVaultsRefreshOnTheirOwnCycle) {
  // An idle machine: every vault's refresh comes from the due set, none
  // from a vault visit that work would have caused.  Vault v refreshes in
  // the clock call at cycle c when (c + v * interval / 16) % interval == 0:
  // 160 puts one vault on every 10th phase, 100 is not a multiple of 16
  // (uneven gaps), and 8 puts two vaults on each phase.  A failed vault
  // never refreshes.
  constexpr u32 kBusy = 3;
  constexpr u32 kFailed = 5;
  for (const u32 interval : {160u, 100u, 8u}) {
    for (const bool fast_forward : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "interval " << interval << ", fast_forward "
                   << fast_forward);
      DeviceConfig dc = small_device();
      dc.refresh_interval_cycles = interval;
      dc.refresh_busy_cycles = kBusy;
      dc.failed_vault_mask = u64{1} << kFailed;
      dc.fast_forward = fast_forward;
      Simulator sim = test::make_simple_sim(dc);
      const u32 vaults = dc.num_vaults();
      ASSERT_EQ(vaults, 16u);

      u64 expected = 0;
      std::vector<Cycle> busy_until(vaults, 0);
      for (u32 i = 0; i < 3 * interval + 5; ++i) {
        const Cycle c = sim.now();
        sim.clock();
        for (u32 v = 0; v < vaults; ++v) {
          const Cycle offset = Cycle{v} * interval / vaults;
          if ((c + offset) % interval == 0 && v != kFailed) {
            busy_until[v] = c + kBusy;
            ++expected;
          }
          for (const Cycle busy : sim.device(0).vaults[v].bank_busy_until) {
            ASSERT_EQ(busy, busy_until[v]) << "vault " << v << " cycle " << c;
          }
        }
      }
      EXPECT_EQ(sim.total_stats().refreshes, expected);
      EXPECT_EQ(busy_until[kFailed], 0u);
      // Wide intervals leave idle stretches between slots to skip.
      if (fast_forward && interval >= 100) {
        EXPECT_GT(sim.cycles_skipped(), 0u);
      }
    }
  }
}

TEST(Refresh, StaggeringSpreadsVaultWindows) {
  // With the stagger, vault 0 and vault 8 must refresh at different cycles
  // (offset = vault * interval / vaults).
  DeviceConfig dc = small_device();
  dc.refresh_interval_cycles = 160;  // 10-cycle stagger across 16 vaults
  dc.refresh_busy_cycles = 4;
  Simulator sim = test::make_simple_sim(dc);
  sim.clock();  // cycle 0: vault 0 refreshes (offset 0)
  const Cycle v0_busy = sim.device(0).vaults[0].bank_busy_until[0];
  const Cycle v8_busy = sim.device(0).vaults[8].bank_busy_until[0];
  EXPECT_GT(v0_busy, 0u);
  EXPECT_EQ(v8_busy, 0u);  // vault 8's slot is 80 cycles later
  for (int i = 0; i < 81; ++i) sim.clock();
  EXPECT_GT(sim.device(0).vaults[8].bank_busy_until[0], 0u);
}

TEST(Refresh, RequestsWaitOutTheRefreshWindow) {
  DeviceConfig dc = small_device();
  dc.refresh_interval_cycles = 1000;  // vault 0 refreshes at cycle 0
  dc.refresh_busy_cycles = 50;
  dc.bank_busy_cycles = 2;
  Simulator sim = test::make_simple_sim(dc);
  // Address in vault 0: the read must wait for the refresh to finish.
  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, 0, 1), Status::Ok);
  const auto rsp = test::await_response(sim, 0, 0, 200);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_GE(sim.now(), 50u);  // could not retire before the window closed
  EXPECT_EQ(rsp->cmd, Command::ReadResponse);
}

TEST(Refresh, ConservationUnderRefreshPressure) {
  DeviceConfig dc = small_device();
  dc.refresh_interval_cycles = 64;
  dc.refresh_busy_cycles = 16;  // heavy: 25% duty cycle
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 2000;
  dcfg.max_cycles = 500000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(sim.total_stats().refreshes, 0u);
}

TEST(Refresh, OverheadScalesWithDutyCycle) {
  const auto run_cycles = [](u32 interval, u32 busy) {
    DeviceConfig dc = small_device();
    dc.refresh_interval_cycles = interval;
    dc.refresh_busy_cycles = busy;
    dc.model_data = false;
    Simulator sim = test::make_simple_sim(dc);
    GeneratorConfig gc;
    gc.capacity_bytes = dc.derived_capacity();
    RandomAccessGenerator gen(gc);
    DriverConfig dcfg;
    dcfg.total_requests = 4000;
    dcfg.max_cycles = 1000000;
    HostDriver driver(sim, gen, dcfg);
    const DriverResult r = driver.run();
    EXPECT_EQ(r.completed, 4000u);
    return r.cycles;
  };
  const Cycle none = run_cycles(0, 0);
  const Cycle light = run_cycles(1000, 50);   // ~5% duty
  const Cycle heavy = run_cycles(100, 50);    // ~50% duty
  EXPECT_GT(light, none);
  EXPECT_GT(heavy, light);
  // Half the bank time gone should roughly double the runtime.
  EXPECT_GT(static_cast<double>(heavy) / static_cast<double>(none), 1.5);
}

}  // namespace
}  // namespace hmcsim
