// End-to-end RAS subsystem: DRAM ECC fault handling (SECDED correction and
// DBE poisoning), background scrubbing, vault degradation with optional
// remap, the RAS error-log register block, and the forward-progress
// watchdog.  Conservation: under any fault rate every request terminates.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

using test::small_device;

DeviceConfig ras_device() {
  DeviceConfig dc = small_device();
  dc.model_data = true;  // the fault domain lives in the data store
  return dc;
}

u64 ras_reg(Simulator& sim, Reg r) {
  u64 value = 0;
  EXPECT_EQ(sim.jtag_reg_read(0, phys_from_reg(r), value), Status::Ok);
  return value;
}

TEST(DramEcc, SingleBitFaultCorrectedTransparently) {
  Simulator sim = test::make_simple_sim(ras_device());
  const std::vector<u64> payload = {0xdeadbeefcafef00dull, 0x0123456789abcdefull};
  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Wr16, 0x1000, 1, 0,
                               payload),
            Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());

  // Plant a single-bit fault directly; rates stay zero, so discovery is
  // driven purely by the sidecar being non-empty.
  const std::array<u32, 1> bit = {17};
  ASSERT_TRUE(sim.device(0).store.plant_fault(0x1000, bit));

  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, 0x1000, 2),
            Status::Ok);
  PacketBuffer raw;
  const auto rsp = test::await_response(sim, 0, 0, 200, &raw);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_NE(rsp->cmd, Command::Error);
  ASSERT_GE(raw.payload().size(), 2u);
  EXPECT_EQ(raw.payload()[0], payload[0]);  // corrected before the read
  EXPECT_EQ(raw.payload()[1], payload[1]);

  EXPECT_EQ(sim.stats(0).dram_sbes, 1u);
  EXPECT_EQ(sim.stats(0).dram_dbes, 0u);
  EXPECT_EQ(sim.device(0).store.fault_count(), 0u);
  EXPECT_EQ(ras_reg(sim, Reg::RasSbe) & 0xffffffffu, 1u);
}

TEST(DramEcc, DoubleBitFaultPoisonsResponse) {
  Simulator sim = test::make_simple_sim(ras_device());
  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Wr16, 0x2000, 1, 0,
                               {0x1111, 0x2222}),
            Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());

  const std::array<u32, 2> bits = {3, 55};
  ASSERT_TRUE(sim.device(0).store.plant_fault(0x2000, bits));

  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, 0x2000, 2),
            Status::Ok);
  const auto rsp = test::await_response(sim, 0, 0);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->cmd, Command::Error);
  EXPECT_EQ(rsp->errstat, ErrStat::DramDbe);

  EXPECT_EQ(sim.stats(0).dram_dbes, 1u);
  EXPECT_EQ(ras_reg(sim, Reg::RasDbe) & 0xffffffffu, 1u);
  EXPECT_EQ(ras_reg(sim, Reg::RasLastAddr), 0x2000u);
  EXPECT_EQ(ras_reg(sim, Reg::RasLastStat),
            static_cast<u64>(ErrStat::DramDbe));

  // Overwriting the poisoned word heals it.
  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Wr16, 0x2000, 3, 0,
                               {0x3333, 0x4444}),
            Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());
  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, 0x2000, 4),
            Status::Ok);
  const auto healed = test::await_response(sim, 0, 0);
  ASSERT_TRUE(healed.has_value());
  EXPECT_NE(healed->cmd, Command::Error);
}

TEST(DramEcc, InjectionRatesProduceFaultsDeterministically) {
  const auto run_counts = [](u64 seed) {
    DeviceConfig dc = ras_device();
    dc.dram_sbe_rate_ppm = 400'000;
    dc.dram_dbe_rate_ppm = 100'000;
    dc.fault_seed = seed;
    Simulator sim = test::make_simple_sim(dc);
    GeneratorConfig gc;
    gc.capacity_bytes = dc.derived_capacity();
    RandomAccessGenerator gen(gc);
    DriverConfig dcfg;
    dcfg.total_requests = 1500;
    dcfg.max_cycles = 500000;
    HostDriver driver(sim, gen, dcfg);
    const DriverResult r = driver.run();
    EXPECT_EQ(r.completed, 1500u);
    const DeviceStats s = sim.total_stats();
    EXPECT_GT(s.dram_sbes, 0u);
    EXPECT_GT(s.dram_dbes, 0u);
    return s.dram_sbes * 1'000'000 + s.dram_dbes;
  };
  EXPECT_EQ(run_counts(7), run_counts(7));
  EXPECT_NE(run_counts(7), run_counts(8));
}

TEST(Scrubber, FindsLatentWriteFaults) {
  DeviceConfig dc = ras_device();
  dc.dram_sbe_rate_ppm = 1'000'000;  // every write plants a latent flip
  dc.scrub_interval_cycles = 8;
  // scrub_span's cost scales with the faults inside the window, not its
  // size, so a capacity/16 window finishes a full pass in 16 steps.
  dc.scrub_window_bytes = dc.derived_capacity() / 16;
  Simulator sim = test::make_simple_sim(dc);

  // Plant latent faults via normal write traffic, then let the scrubber
  // sweep the whole address space past them.
  for (Tag t = 0; t < 16; ++t) {
    ASSERT_EQ(test::send_request(sim, 0, t % 4, Command::Wr16, 0x40 * t, t,
                                 0, {t, t}),
              Status::Ok);
  }
  (void)test::drain_all(sim, 500);
  EXPECT_GT(sim.device(0).store.fault_count(), 0u);

  // Two full passes: 16 windows x 8-cycle interval each.
  for (int i = 0; i < 400; ++i) sim.clock();
  const DeviceStats s = sim.stats(0);
  EXPECT_GT(s.scrub_steps, 0u);
  EXPECT_GT(s.scrub_corrections, 0u);
  EXPECT_EQ(sim.device(0).store.fault_count(), 0u);

  // Scrub progress register: corrected count in RAS_SBE[63:32], cursor
  // page in RAS_SCRUB[31:0].
  EXPECT_EQ(ras_reg(sim, Reg::RasSbe) >> 32, s.scrub_corrections);
  EXPECT_NE(ras_reg(sim, Reg::RasScrub), 0u);
}

TEST(Scrubber, IdleDeviceScrubsWithoutSideEffects) {
  DeviceConfig dc = ras_device();
  dc.scrub_interval_cycles = 4;
  Simulator sim = test::make_simple_sim(dc);
  for (int i = 0; i < 100; ++i) sim.clock();
  const DeviceStats s = sim.stats(0);
  EXPECT_GT(s.scrub_steps, 0u);
  EXPECT_EQ(s.scrub_corrections, 0u);
  EXPECT_EQ(s.scrub_uncorrectables, 0u);
  EXPECT_TRUE(sim.quiescent());
  EXPECT_FALSE(sim.watchdog_fired());  // scrubbing is not forward progress
}

TEST(VaultDegradation, StaticMaskErrorsWithoutRemap) {
  DeviceConfig dc = ras_device();
  dc.failed_vault_mask = 0x1;  // vault 0 down from cycle 0
  Simulator sim = test::make_simple_sim(dc);
  const AddressMap& map = sim.device(0).address_map();

  // Find addresses landing in vault 0 and in a healthy vault.
  PhysAddr dead = 0, alive = 0;
  bool have_dead = false, have_alive = false;
  for (PhysAddr a = 0; a < (1u << 16) && !(have_dead && have_alive);
       a += 16) {
    if (map.vault_of(a) == 0 && !have_dead) { dead = a; have_dead = true; }
    if (map.vault_of(a) == 1 && !have_alive) { alive = a; have_alive = true; }
  }
  ASSERT_TRUE(have_dead && have_alive);

  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, dead, 1),
            Status::Ok);
  const auto rsp = test::await_response(sim, 0, 0);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->cmd, Command::Error);
  EXPECT_EQ(rsp->errstat, ErrStat::VaultFailed);
  EXPECT_EQ(sim.stats(0).degraded_drops, 1u);

  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, alive, 2),
            Status::Ok);
  const auto ok_rsp = test::await_response(sim, 0, 0);
  ASSERT_TRUE(ok_rsp.has_value());
  EXPECT_NE(ok_rsp->cmd, Command::Error);

  EXPECT_EQ(ras_reg(sim, Reg::RasVaultFail) & 0xffffffffu, 0x1u);
}

TEST(VaultDegradation, RemapRedirectsToPartnerVault) {
  DeviceConfig dc = ras_device();
  dc.failed_vault_mask = 0x1;
  dc.vault_remap = true;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 1000;
  dcfg.max_cycles = 500000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 1000u);
  EXPECT_EQ(r.errors, 0u);  // partner vault absorbs the traffic
  const DeviceStats s = sim.total_stats();
  EXPECT_GT(s.vault_remaps, 0u);
  EXPECT_EQ(s.degraded_drops, 0u);
  EXPECT_EQ(ras_reg(sim, Reg::RasVaultFail) >> 32, s.vault_remaps);
}

TEST(VaultDegradation, UncorrectableThresholdFailsVaultDynamically) {
  DeviceConfig dc = ras_device();
  dc.vault_fail_threshold = 3;
  Simulator sim = test::make_simple_sim(dc);

  // Three poisoned reads of the same vault trip the threshold; later
  // requests die at the crossbar with VAULT_FAILED.
  for (Tag t = 1; t <= 5; ++t) {
    const PhysAddr addr = 0x4000;
    if (t <= 3) {
      ASSERT_EQ(test::send_request(sim, 0, 0, Command::Wr16, addr, 100 + t,
                                   0, {t, t}),
                Status::Ok);
      ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());
      const std::array<u32, 2> bits = {2, 30};
      ASSERT_TRUE(sim.device(0).store.plant_fault(addr, bits));
    }
    ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, addr, t),
              Status::Ok);
    const auto rsp = test::await_response(sim, 0, 0);
    ASSERT_TRUE(rsp.has_value());
    EXPECT_EQ(rsp->cmd, Command::Error);
    EXPECT_EQ(rsp->errstat,
              t <= 3 ? ErrStat::DramDbe : ErrStat::VaultFailed);
  }
  EXPECT_EQ(sim.stats(0).vault_failures, 1u);
  EXPECT_NE(sim.device(0).ras.failed_vaults, 0u);
  EXPECT_FALSE(sim.device(0).vault_alive(
      sim.device(0).address_map().vault_of(0x4000)));
}

TEST(Conservation, EveryRequestTerminatesUnderFullFaultRates) {
  // 100% DBE + transient link errors + a statically failed vault + the
  // watchdog armed: every request must still terminate (data or error)
  // and the watchdog must never fire.
  DeviceConfig dc = ras_device();
  dc.dram_sbe_rate_ppm = 500'000;
  dc.dram_dbe_rate_ppm = 500'000;  // every access rolls a fault
  dc.link_protocol = true;
  dc.link_retry_limit = 3;
  dc.link_error_rate_ppm = 100'000;
  dc.failed_vault_mask = 0x2;
  dc.scrub_interval_cycles = 32;
  dc.watchdog_cycles = 20'000;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 2000;
  dcfg.max_cycles = 1'000'000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_FALSE(r.hit_cycle_cap);
  EXPECT_FALSE(r.watchdog_fired);
  EXPECT_FALSE(sim.watchdog_fired());
  EXPECT_GT(r.errors, 0u);
  const DeviceStats s = sim.total_stats();
  EXPECT_GT(s.dram_dbes, 0u);
  EXPECT_GT(s.degraded_drops, 0u);
}

TEST(Conservation, AllVaultsFailedStillAnswersEverything) {
  DeviceConfig dc = ras_device();
  dc.failed_vault_mask = 0xffff;  // all 16 vaults down
  dc.watchdog_cycles = 20'000;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 500;
  dcfg.max_cycles = 500000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 500u);
  EXPECT_EQ(r.errors, 500u);  // every single one dies with VAULT_FAILED
  EXPECT_FALSE(r.watchdog_fired);
}

TEST(Watchdog, FiresWhenTheHostStopsDraining) {
  // Saturate the device and never recv: responses back up until nothing
  // can move, which is exactly the no-forward-progress condition.
  DeviceConfig dc = small_device();
  dc.watchdog_cycles = 200;
  Simulator sim = test::make_simple_sim(dc);
  for (Tag t = 0; t < 200; ++t) {
    (void)test::send_request(sim, 0, t % 4, Command::Rd16, 64 * t, t);
  }
  for (int i = 0; i < 20'000 && !sim.watchdog_fired(); ++i) sim.clock();
  ASSERT_TRUE(sim.watchdog_fired());
  EXPECT_FALSE(sim.watchdog_report().empty());
  // The report names queue occupancies and in-flight work.
  EXPECT_NE(sim.watchdog_report().find("cycle"), std::string::npos);

  // A fired watchdog freezes the machine: further clocks are refused.
  const Cycle frozen = sim.now();
  sim.clock();
  sim.clock();
  EXPECT_EQ(sim.now(), frozen);
}

TEST(Watchdog, NeverFiresUnderNormalLoad) {
  DeviceConfig dc = small_device();
  dc.watchdog_cycles = 1000;
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 3000;
  dcfg.max_cycles = 500000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 3000u);
  EXPECT_FALSE(r.watchdog_fired);
  EXPECT_FALSE(sim.watchdog_fired());
  EXPECT_TRUE(sim.watchdog_report().empty());
}

TEST(Watchdog, ResetRearmsIt) {
  DeviceConfig dc = small_device();
  dc.watchdog_cycles = 100;
  Simulator sim = test::make_simple_sim(dc);
  for (Tag t = 0; t < 100; ++t) {
    (void)test::send_request(sim, 0, t % 4, Command::Rd16, 64 * t, t);
  }
  for (int i = 0; i < 10'000 && !sim.watchdog_fired(); ++i) sim.clock();
  ASSERT_TRUE(sim.watchdog_fired());
  sim.reset();
  EXPECT_FALSE(sim.watchdog_fired());
  EXPECT_TRUE(sim.watchdog_report().empty());
  // The machine clocks again after reset.
  const Cycle before = sim.now();
  sim.clock();
  EXPECT_EQ(sim.now(), before + 1);
}

TEST(RasConfig, ValidationRejectsBadKnobs) {
  // DRAM fault injection requires the data store.
  DeviceConfig dc = small_device();
  dc.model_data = false;
  dc.dram_sbe_rate_ppm = 100;
  Simulator sim;
  std::string diag;
  EXPECT_NE(sim.init_simple(dc, &diag), Status::Ok);

  // Failed-vault mask must stay within the vault count.
  DeviceConfig dc2 = ras_device();
  dc2.failed_vault_mask = u64{1} << 20;  // only 16 vaults exist
  Simulator sim2;
  EXPECT_NE(sim2.init_simple(dc2, &diag), Status::Ok);

  // Scrub window must be a nonzero multiple of 16 when scrubbing is on.
  DeviceConfig dc3 = ras_device();
  dc3.scrub_interval_cycles = 64;
  dc3.scrub_window_bytes = 24;
  Simulator sim3;
  EXPECT_NE(sim3.init_simple(dc3, &diag), Status::Ok);
}

}  // namespace
}  // namespace hmcsim
