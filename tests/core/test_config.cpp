#include "core/config.hpp"

#include <gtest/gtest.h>

namespace hmcsim {
namespace {

TEST(DeviceConfig, DefaultIsValid) {
  DeviceConfig dc;
  std::string diag;
  EXPECT_EQ(dc.validate(&diag), Status::Ok) << diag;
}

TEST(DeviceConfig, DerivedGeometry) {
  DeviceConfig dc;
  dc.num_links = 4;
  dc.banks_per_vault = 8;
  EXPECT_EQ(dc.num_vaults(), 16u);
  EXPECT_EQ(dc.num_quads(), 4u);
  EXPECT_EQ(dc.derived_capacity(), u64{2} << 30);
  dc.num_links = 8;
  dc.banks_per_vault = 16;
  EXPECT_EQ(dc.num_vaults(), 32u);
  EXPECT_EQ(dc.derived_capacity(), u64{8} << 30);
}

TEST(DeviceConfig, RejectsBadLinkCount) {
  DeviceConfig dc;
  dc.num_links = 6;
  std::string diag;
  EXPECT_EQ(dc.validate(&diag), Status::InvalidConfig);
  EXPECT_NE(diag.find("num_links"), std::string::npos);
}

TEST(DeviceConfig, RejectsBadBankCount) {
  DeviceConfig dc;
  dc.banks_per_vault = 12;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
}

TEST(DeviceConfig, RejectsZeroQueueDepths) {
  DeviceConfig dc;
  dc.xbar_depth = 0;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  dc = DeviceConfig{};
  dc.vault_depth = 0;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  // The ceiling is a fixed constant: exactly the cap passes, one more
  // slot (or a forged 32-bit all-ones) fails.
  for (usize* depth : {&dc.xbar_depth, &dc.vault_depth}) {
    dc = DeviceConfig{};
    *depth = DeviceConfig::kMaxQueueDepth;
    EXPECT_EQ(dc.validate(), Status::Ok);
    *depth = DeviceConfig::kMaxQueueDepth + 1;
    EXPECT_EQ(dc.validate(), Status::InvalidConfig);
    *depth = 0xffffffff;
    EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  }
}

TEST(DeviceConfig, RejectsBadBlockSize) {
  DeviceConfig dc;
  dc.max_block_bytes = 48;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  for (const u64 good : {32u, 64u, 128u, 256u}) {
    dc.max_block_bytes = good;
    EXPECT_EQ(dc.validate(), Status::Ok) << good;
  }
}

TEST(DeviceConfig, CapacityCrossCheck) {
  DeviceConfig dc;  // 4-link/8-bank => 2 GB
  dc.capacity_bytes = u64{2} << 30;
  EXPECT_EQ(dc.validate(), Status::Ok);
  dc.capacity_bytes = u64{4} << 30;
  std::string diag;
  EXPECT_EQ(dc.validate(&diag), Status::InvalidConfig);
  EXPECT_NE(diag.find("capacity"), std::string::npos);
}

TEST(DeviceConfig, RejectsZeroTimingParams) {
  DeviceConfig dc;
  dc.bank_busy_cycles = 0;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  dc = DeviceConfig{};
  dc.xbar_flits_per_cycle = 0;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
}

TEST(DeviceConfig, LinkProtocolKnobRanges) {
  auto proto = [] {
    DeviceConfig dc;
    dc.link_protocol = true;
    dc.link_retry_limit = 8;
    return dc;
  };
  EXPECT_EQ(proto().validate(), Status::Ok);

  // The spec retry machine always replays: a zero retry budget is
  // meaningless with the protocol on.
  DeviceConfig dc = proto();
  dc.link_retry_limit = 0;
  std::string diag;
  EXPECT_EQ(dc.validate(&diag), Status::InvalidConfig);
  EXPECT_NE(diag.find("link_retry_limit"), std::string::npos);

  // The retry buffer must hold one maximal packet and fit the 8-bit FRP.
  dc = proto();
  dc.link_retry_buffer_flits = spec::kMaxPacketFlits - 1;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  dc.link_retry_buffer_flits = 257;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);

  // Token pool: 0 = auto, otherwise at least one maximal packet.
  dc = proto();
  dc.link_tokens = spec::kMaxPacketFlits - 1;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  dc.link_tokens = spec::kMaxPacketFlits;
  EXPECT_EQ(dc.validate(), Status::Ok);

  dc = proto();
  dc.link_retry_latency = 0;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  dc.link_retry_latency = 4097;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);

  // Burst length and the stuck-link schedule have shape constraints of
  // their own.
  dc = proto();
  dc.link_error_burst_len = 0;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  dc.link_error_burst_len = 65;
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);

  dc = proto();
  dc.link_stuck_interval_cycles = 64;
  dc.link_stuck_window_cycles = 64;  // window must be < interval
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
  dc.link_stuck_window_cycles = 8;
  EXPECT_EQ(dc.validate(), Status::Ok);
  dc.link_stuck_window_cycles = 0;  // interval without a window
  EXPECT_EQ(dc.validate(), Status::InvalidConfig);
}

TEST(DeviceConfig, LinkProtocolKnobsRequireTheProtocol) {
  // The sub-knobs are meaningless with the protocol off; silently ignoring
  // them would hide a configuration mistake.  Link errors exist only in
  // the protocol, so a nonzero error rate is one of them.
  for (int knob = 0; knob < 5; ++knob) {
    DeviceConfig dc;
    switch (knob) {
      case 0: dc.link_tokens = 32; break;
      case 1: dc.link_error_burst_len = 4; break;
      case 2:
        dc.link_stuck_interval_cycles = 64;
        dc.link_stuck_window_cycles = 8;
        break;
      case 3: dc.link_error_rate_ppm = 20000; break;
      default: dc.link_fail_threshold = 2; break;
    }
    std::string diag;
    EXPECT_EQ(dc.validate(&diag), Status::InvalidConfig) << "knob " << knob;
    EXPECT_NE(diag.find("link_protocol"), std::string::npos) << diag;
  }
}

TEST(DeviceConfig, WatchdogMustOutlastLinkRecovery) {
  DeviceConfig dc;
  dc.link_protocol = true;
  dc.link_retry_limit = 8;
  dc.link_retry_latency = 32;
  dc.link_stuck_interval_cycles = 256;
  dc.link_stuck_window_cycles = 16;
  dc.watchdog_cycles = 48;  // == latency + window: misreads recovery
  std::string diag;
  EXPECT_EQ(dc.validate(&diag), Status::InvalidConfig);
  EXPECT_NE(diag.find("watchdog_cycles"), std::string::npos);
  dc.watchdog_cycles = 49;
  EXPECT_EQ(dc.validate(), Status::Ok);
}

TEST(DeviceConfig, AddressMapModesAllBuild) {
  for (const auto mode : {AddrMapMode::LowInterleave, AddrMapMode::BankFirst,
                          AddrMapMode::Linear}) {
    DeviceConfig dc;
    dc.map_mode = mode;
    EXPECT_EQ(dc.validate(), Status::Ok);
    EXPECT_TRUE(dc.make_address_map().valid());
  }
}

TEST(SimConfig, RejectsTooManyDevices) {
  // The 3-bit CUB field reserves ids above the device count for hosts.
  SimConfig sc;
  sc.num_devices = 8;
  std::string diag;
  EXPECT_EQ(sc.validate(&diag), Status::InvalidConfig);
  EXPECT_NE(diag.find("CUB"), std::string::npos);
  sc.num_devices = 7;
  EXPECT_EQ(sc.validate(), Status::Ok);
  sc.num_devices = 0;
  EXPECT_EQ(sc.validate(), Status::InvalidConfig);
}

TEST(SimConfig, HostCubIsAboveDevices) {
  SimConfig sc;
  sc.num_devices = 3;
  EXPECT_EQ(sc.host_cub(), 3u);
}

TEST(Table1Configs, MatchThePaper) {
  // The four §VI configurations: 4/8 links x 8/16 banks, 2..8 GB.
  const auto a = table1_config_4link_8bank();
  EXPECT_EQ(a.num_links, 4u);
  EXPECT_EQ(a.banks_per_vault, 8u);
  EXPECT_EQ(a.capacity_bytes, u64{2} << 30);
  EXPECT_EQ(a.xbar_depth, 128u);  // 128 crossbar arbitration slots
  EXPECT_EQ(a.vault_depth, 64u);  // 64 vault arbitration slots
  EXPECT_EQ(a.validate(), Status::Ok);

  const auto b = table1_config_4link_16bank();
  EXPECT_EQ(b.capacity_bytes, u64{4} << 30);
  EXPECT_EQ(b.validate(), Status::Ok);

  const auto c = table1_config_8link_8bank();
  EXPECT_EQ(c.num_links, 8u);
  EXPECT_EQ(c.capacity_bytes, u64{4} << 30);
  EXPECT_EQ(c.validate(), Status::Ok);

  const auto d = table1_config_8link_16bank();
  EXPECT_EQ(d.capacity_bytes, u64{8} << 30);
  EXPECT_EQ(d.num_vaults(), 32u);
  EXPECT_EQ(d.validate(), Status::Ok);
}

}  // namespace
}  // namespace hmcsim
