// Live status registers: FEAT geometry discovery, IBTC token counts, ERR
// error totals — readable over both the JTAG and MODE_READ paths.
#include <gtest/gtest.h>

#include "tests/core/helpers.hpp"

namespace hmcsim {
namespace {

using test::small_device;

TEST(LiveRegisters, FeatEncodesGeometry) {
  Simulator sim = test::make_simple_sim();  // 4-link/8-bank/2GB
  u64 feat = 0;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Feat), feat), Status::Ok);
  EXPECT_EQ(feat & 0xff, 2u);            // capacity GB
  EXPECT_EQ((feat >> 8) & 0xf, 4u);      // links
  EXPECT_EQ((feat >> 12) & 0xff, 8u);    // banks per vault
  EXPECT_EQ((feat >> 20) & 0xff, 16u);   // vaults

  DeviceConfig dc = small_device();
  dc.num_links = 8;
  dc.banks_per_vault = 16;
  Simulator big = test::make_simple_sim(dc);
  ASSERT_EQ(big.jtag_reg_read(0, phys_from_reg(Reg::Feat), feat), Status::Ok);
  EXPECT_EQ(feat & 0xff, 8u);
  EXPECT_EQ((feat >> 8) & 0xf, 8u);
  EXPECT_EQ((feat >> 12) & 0xff, 16u);
  EXPECT_EQ((feat >> 20) & 0xff, 32u);
}

TEST(LiveRegisters, IbtcTracksFreeQueueSlots) {
  DeviceConfig dc = small_device();
  dc.xbar_depth = 8;
  Simulator sim = test::make_simple_sim(dc);
  u64 tokens = 0;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Ibtc0), tokens),
            Status::Ok);
  EXPECT_EQ(tokens, 8u);  // empty queue: all tokens available

  for (Tag t = 0; t < 3; ++t) {
    ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, 64 * t, t),
              Status::Ok);
  }
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Ibtc0), tokens),
            Status::Ok);
  EXPECT_EQ(tokens, 5u);  // three slots consumed
  // Other links untouched.
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Ibtc1), tokens),
            Status::Ok);
  EXPECT_EQ(tokens, 8u);

  (void)test::drain_all(sim);
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Ibtc0), tokens),
            Status::Ok);
  EXPECT_EQ(tokens, 8u);  // tokens returned after the queue drained
}

TEST(LiveRegisters, ErrCountsErrorResponses) {
  Simulator sim = test::make_simple_sim();
  u64 err = 1;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Err), err), Status::Ok);
  EXPECT_EQ(err, 0u);

  // Unroutable cube -> one error response.
  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, 0x40, 1, /*cub=*/5),
            Status::Ok);
  (void)test::drain_all(sim);
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Err), err), Status::Ok);
  EXPECT_EQ(err & 0xffffffffu, 1u);
  EXPECT_EQ(err >> 32, 0u);  // no injected link errors
}

TEST(LiveRegisters, ErrHighWordCountsInjectedLinkErrors) {
  DeviceConfig dc = small_device();
  dc.link_protocol = true;
  dc.link_retry_limit = 1;
  dc.link_error_rate_ppm = 1'000'000;  // the one replay fails too
  Simulator sim = test::make_simple_sim(dc);
  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd16, 0x40, 1),
            Status::Ok);
  (void)test::drain_all(sim);
  u64 err = 0;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Err), err), Status::Ok);
  EXPECT_EQ(err >> 32, 1u);
}

TEST(LiveRegisters, InBandModeReadSeesTheSameLiveValues) {
  Simulator sim = test::make_simple_sim();
  PacketBuffer pkt;
  ASSERT_EQ(build_moderequest(0, phys_from_reg(Reg::Feat), 1, false, 0, 0,
                              pkt),
            Status::Ok);
  ASSERT_EQ(sim.send(0, 0, pkt), Status::Ok);
  PacketBuffer raw;
  const auto rsp = test::await_response(sim, 0, 0, 100, &raw);
  ASSERT_TRUE(rsp.has_value());
  ASSERT_EQ(rsp->cmd, Command::ModeReadResponse);
  u64 jtag_value = 0;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Feat), jtag_value),
            Status::Ok);
  EXPECT_EQ(raw.payload()[0], jtag_value);
}

TEST(LiveRegisters, LiveValuesAreStillWriteProtected) {
  Simulator sim = test::make_simple_sim();
  EXPECT_EQ(sim.jtag_reg_write(0, phys_from_reg(Reg::Feat), 0),
            Status::ReadOnlyRegister);
  EXPECT_EQ(sim.jtag_reg_write(0, phys_from_reg(Reg::Err), 0),
            Status::ReadOnlyRegister);
  // IBTC registers are architected RW; a write lands in backing storage but
  // reads remain live.
  ASSERT_EQ(sim.jtag_reg_write(0, phys_from_reg(Reg::Ibtc0), 3), Status::Ok);
  u64 tokens = 0;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Ibtc0), tokens),
            Status::Ok);
  EXPECT_EQ(tokens, sim.config().device.xbar_depth);
}

}  // namespace
}  // namespace hmcsim
