// Property-style parameterized sweeps: structural and conservation
// invariants that must hold for EVERY device configuration the simulator
// accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>

#include "tests/core/helpers.hpp"
#include "tests/integration/scenario.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

// (links, banks, xbar_depth, vault_depth)
using ConfigTuple = std::tuple<u32, u32, u32, u32>;

class ConfigSweep : public ::testing::TestWithParam<ConfigTuple> {
 protected:
  DeviceConfig make_config() const {
    const auto [links, banks, xbar, vault] = GetParam();
    DeviceConfig dc;
    dc.num_links = links;
    dc.banks_per_vault = banks;
    dc.xbar_depth = xbar;
    dc.vault_depth = vault;
    dc.bank_busy_cycles = 4;
    dc.model_data = false;
    return dc;
  }
};

TEST_P(ConfigSweep, StructureMatchesGeometry) {
  const DeviceConfig dc = make_config();
  ASSERT_EQ(dc.validate(), Status::Ok);
  Simulator sim = test::make_simple_sim(dc);
  const Device& dev = sim.device(0);
  EXPECT_EQ(dev.links.size(), dc.num_links);
  EXPECT_EQ(dev.vaults.size(), dc.num_vaults());
  for (const auto& link : dev.links) {
    EXPECT_EQ(link.rqst.capacity(), dc.xbar_depth);
    EXPECT_EQ(link.rsp.capacity(), dc.xbar_depth);
  }
  for (const auto& vault : dev.vaults) {
    EXPECT_EQ(vault.rqst.capacity(), dc.vault_depth);
    EXPECT_EQ(vault.bank_busy_until.size(), dc.banks_per_vault);
  }
  EXPECT_EQ(dev.store.capacity(), dc.derived_capacity());
}

TEST_P(ConfigSweep, ConservationUnderRandomLoad) {
  // No request is ever lost or duplicated, for any geometry/queue sizing.
  const DeviceConfig dc = make_config();
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  gc.seed = static_cast<u32>(std::get<0>(GetParam()) * 1000 +
                             std::get<1>(GetParam()));
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 1500;
  dcfg.max_cycles = 500000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();

  ASSERT_FALSE(r.hit_cycle_cap);
  EXPECT_EQ(r.sent, 1500u);
  EXPECT_EQ(r.completed, 1500u);
  EXPECT_EQ(r.errors, 0u);
  const DeviceStats s = sim.total_stats();
  EXPECT_EQ(s.retired(), 1500u);
  EXPECT_EQ(s.responses, 1500u);
  EXPECT_EQ(s.recvs, 1500u);
  EXPECT_TRUE(sim.quiescent());
}

TEST_P(ConfigSweep, EveryVaultEventuallyServesTraffic) {
  const DeviceConfig dc = make_config();
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = dc.num_vaults() * 64;
  dcfg.max_cycles = 500000;
  HostDriver driver(sim, gen, dcfg);
  (void)driver.run();
  for (u32 v = 0; v < dc.num_vaults(); ++v) {
    EXPECT_GT(sim.device(0).vaults[v].rqst.stats().total_pops, 0u)
        << "vault " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConfigSweep,
    ::testing::Values(ConfigTuple{4, 8, 8, 4}, ConfigTuple{4, 8, 128, 64},
                      ConfigTuple{4, 16, 16, 8}, ConfigTuple{8, 8, 16, 8},
                      ConfigTuple{8, 16, 32, 16}, ConfigTuple{4, 8, 1, 1},
                      ConfigTuple{8, 16, 2, 1}),
    [](const auto& info) {
      return "L" + std::to_string(std::get<0>(info.param)) + "B" +
             std::to_string(std::get<1>(info.param)) + "X" +
             std::to_string(std::get<2>(info.param)) + "V" +
             std::to_string(std::get<3>(info.param));
    });

// Address-map-mode sweep: every map mode preserves conservation and the
// low-interleave map minimizes bank conflicts for sequential traffic.
class MapModeSweep : public ::testing::TestWithParam<AddrMapMode> {};

TEST_P(MapModeSweep, ConservationHolds) {
  DeviceConfig dc = test::small_device();
  dc.map_mode = GetParam();
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  StreamGenerator gen(gc);  // sequential: the worst case for linear maps
  DriverConfig dcfg;
  dcfg.total_requests = 2000;
  dcfg.max_cycles = 500000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_FALSE(r.hit_cycle_cap);
}

INSTANTIATE_TEST_SUITE_P(Modes, MapModeSweep,
                         ::testing::Values(AddrMapMode::LowInterleave,
                                           AddrMapMode::BankFirst,
                                           AddrMapMode::Linear),
                         [](const auto& info) {
                           switch (info.param) {
                             case AddrMapMode::LowInterleave:
                               return "LowInterleave";
                             case AddrMapMode::BankFirst:
                               return "BankFirst";
                             case AddrMapMode::Linear:
                               return "Linear";
                           }
                           return "Unknown";
                         });

TEST(MapModeProperty, LowInterleaveBeatsLinearOnSequentialTraffic) {
  // The spec's default map exists to avoid bank conflicts on sequential
  // streams (§III.B); the linear map serializes everything through one
  // vault/bank and must be dramatically slower.
  const auto run_cycles = [](AddrMapMode mode) {
    DeviceConfig dc = test::small_device();
    dc.map_mode = mode;
    dc.model_data = false;
    Simulator sim = test::make_simple_sim(dc);
    GeneratorConfig gc;
    gc.capacity_bytes = dc.derived_capacity();
    StreamGenerator gen(gc);
    DriverConfig dcfg;
    dcfg.total_requests = 2000;
    dcfg.max_cycles = 1000000;
    HostDriver driver(sim, gen, dcfg);
    return driver.run().cycles;
  };
  const Cycle low = run_cycles(AddrMapMode::LowInterleave);
  const Cycle linear = run_cycles(AddrMapMode::Linear);
  EXPECT_LT(low * 3, linear);
}

// Vault scheduling sweep: both schedulers conserve traffic; strict FIFO is
// strictly slower under random load (it gives up the §III.C reordering
// freedom).
class VaultScheduleSweep : public ::testing::TestWithParam<VaultSchedule> {};

TEST_P(VaultScheduleSweep, ConservationHolds) {
  DeviceConfig dc = test::small_device();
  dc.vault_schedule = GetParam();
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
  EXPECT_FALSE(r.hit_cycle_cap);
}

INSTANTIATE_TEST_SUITE_P(Schedules, VaultScheduleSweep,
                         ::testing::Values(VaultSchedule::BankReady,
                                           VaultSchedule::StrictFifo),
                         [](const auto& info) {
                           return info.param == VaultSchedule::BankReady
                                      ? "BankReady"
                                      : "StrictFifo";
                         });

TEST(VaultScheduleProperty, ReorderingBeatsStrictFifo) {
  const auto run_cycles = [](VaultSchedule schedule) {
    DeviceConfig dc = test::small_device();
    dc.vault_schedule = schedule;
    dc.model_data = false;
    Simulator sim = test::make_simple_sim(dc);
    GeneratorConfig gc;
    gc.capacity_bytes = dc.derived_capacity();
    RandomAccessGenerator gen(gc);
    DriverConfig dcfg;
    dcfg.total_requests = 4000;
    dcfg.max_cycles = 1000000;
    HostDriver driver(sim, gen, dcfg);
    return driver.run().cycles;
  };
  const Cycle ready = run_cycles(VaultSchedule::BankReady);
  const Cycle strict = run_cycles(VaultSchedule::StrictFifo);
  EXPECT_LT(ready, strict);
}

TEST(VaultScheduleProperty, StrictFifoRespondsInArrivalOrderPerVault) {
  // With strict FIFO and a single vault target, responses must come back in
  // exactly the issue order even across different banks.
  DeviceConfig dc = test::small_device();
  dc.vault_schedule = VaultSchedule::StrictFifo;
  Simulator sim = test::make_simple_sim(dc);
  const AddressMap& map = sim.device(0).address_map();
  std::vector<PhysAddr> vault0_addrs;
  for (PhysAddr a = 0; vault0_addrs.size() < 8 && a < (1u << 20); a += 16) {
    if (map.vault_of(a) == 0) vault0_addrs.push_back(a);
  }
  for (Tag t = 0; t < 8; ++t) {
    ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, vault0_addrs[t],
                                 t),
              Status::Ok);
  }
  const auto responses = test::drain_all(sim, 2000);
  ASSERT_EQ(responses.size(), 8u);
  for (Tag t = 0; t < 8; ++t) {
    EXPECT_EQ(responses[t].tag, t);
  }
}

// Block-size sweep: all request sizes complete under load.
class BlockSizeSweep : public ::testing::TestWithParam<u32> {};

TEST_P(BlockSizeSweep, AllSizesComplete) {
  DeviceConfig dc = test::small_device();
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  gc.request_bytes = GetParam();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 800;
  dcfg.max_cycles = 500000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 800u);
  EXPECT_EQ(r.errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockSizeSweep,
                         ::testing::Values(16, 32, 64, 128),
                         [](const auto& info) {
                           return "B" + std::to_string(info.param);
                         });

// Stages 3-5 visit only the vaults in Device::active_vaults, so a vault
// holding an entry without its bit would never be served.  After every
// clock of these rows (one cube, failed-vault remapping, a chain, a torus;
// idle windows on, fast-forward off and on), every vault that holds an
// entry has its bit set.
TEST(ActiveVaultProperty, EveryVaultHoldingAnEntryIsMarked) {
  for (const std::string_view row :
       {"random_4link", "vault_fail_remap", "random_chain3_ras",
        "torus_2x2"}) {
    const test::Scenario* s = std::find_if(
        std::begin(test::kScenarios), std::end(test::kScenarios),
        [&](const test::Scenario& r) { return r.name == row; });
    ASSERT_NE(s, std::end(test::kScenarios)) << row;
    for (const bool fast_forward : {false, true}) {
      SCOPED_TRACE(::testing::Message() << row << ", fast_forward "
                                        << fast_forward);
      DeviceConfig dc = test::scenario_device(*s);
      dc.fast_forward = fast_forward;
      Simulator sim;
      std::string diag;
      ASSERT_EQ(test::build_sim(*s, dc, sim, &diag), Status::Ok) << diag;
      test::RowRun run(*s, sim, /*idle_windows=*/true);
      u64 marked = 0;
      while (run.advance()) {
        for (u32 d = 0; d < sim.num_devices(); ++d) {
          const Device& dev = sim.device(d);
          for (u32 v = 0; v < dev.vaults.size(); ++v) {
            if (dev.vaults[v].rqst.empty() && dev.vaults[v].rsp.empty()) {
              continue;
            }
            ASSERT_NE(dev.active_vaults >> v & 1, 0u)
                << "cube " << d << " vault " << v << " at cycle "
                << sim.now();
            ++marked;
          }
        }
      }
      EXPECT_EQ(run.result().completed, s->requests);
      EXPECT_GT(marked, 0u);
      if (fast_forward) EXPECT_GT(sim.cycles_skipped(), 0u);
    }
  }
}

}  // namespace
}  // namespace hmcsim
