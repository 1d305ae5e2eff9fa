// Backpressure and stall-signal behavior: crossbar queue full on send,
// crossbar -> vault stalls, response-queue pressure, and recovery.
#include <gtest/gtest.h>

#include "tests/core/helpers.hpp"

namespace hmcsim {
namespace {

using test::await_response;
using test::make_simple_sim;
using test::send_request;
using test::small_device;

TEST(Backpressure, SendStallsWhenXbarQueueFull) {
  DeviceConfig dc = small_device();
  dc.xbar_depth = 4;
  Simulator sim = make_simple_sim(dc);
  // Without clocking, nothing drains: the 5th send must stall.
  for (Tag t = 0; t < 4; ++t) {
    ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 64 * t, t), Status::Ok);
  }
  EXPECT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x400, 9),
            Status::Stalled);
  EXPECT_EQ(sim.stats(0).send_stalls, 1u);

  // The full link refuses before it decodes: a packet with a flipped CRC
  // bit and one with an unknown command read Stalled too, each counting a
  // send stall and a refused push, as the well-formed one did.
  const QueueStats& link0 = sim.device(0).links[0].rqst.stats();
  EXPECT_EQ(link0.rejected_full, 1u);
  PacketBuffer corrupt;
  ASSERT_EQ(build_memrequest(0, 0x480, 11, Command::Rd16, 0, {}, corrupt),
            Status::Ok);
  corrupt.tail() ^= u64{1} << 40;  // one bit of the CRC field
  ASSERT_FALSE(check_crc(corrupt));
  EXPECT_EQ(sim.send(0, 0, corrupt), Status::Stalled);
  EXPECT_EQ(sim.stats(0).send_stalls, 2u);
  EXPECT_EQ(link0.rejected_full, 2u);
  PacketBuffer unknown;
  ASSERT_EQ(build_memrequest(0, 0x4c0, 12, Command::Rd16, 0, {}, unknown),
            Status::Ok);
  unknown.header() = deposit(unknown.header(), 0, 6, 0x3f);
  seal_crc(unknown);
  EXPECT_EQ(sim.send(0, 0, unknown), Status::Stalled);
  EXPECT_EQ(sim.stats(0).send_stalls, 3u);
  EXPECT_EQ(link0.rejected_full, 3u);
  // A flow packet never enters the queue, so the full link takes it.
  PacketBuffer tret;
  ASSERT_EQ(build_memrequest(0, 0, 0, Command::Tret, 0, {}, tret), Status::Ok);
  EXPECT_EQ(sim.send(0, 0, tret), Status::Ok);
  EXPECT_EQ(sim.stats(0).flow_packets, 1u);
  EXPECT_EQ(sim.stats(0).send_stalls, 3u);

  // Other links are independent queues and still accept.
  EXPECT_EQ(send_request(sim, 0, 1, Command::Rd16, 0x440, 10), Status::Ok);
  // With room, the corrupt packet is decoded and bounced.
  EXPECT_EQ(sim.send(0, 1, corrupt), Status::MalformedPacket);
  EXPECT_EQ(sim.stats(0).send_stalls, 3u);
}

TEST(Backpressure, StallClearsAfterClocking) {
  DeviceConfig dc = small_device();
  dc.xbar_depth = 2;
  Simulator sim = make_simple_sim(dc);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0, 0), Status::Ok);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 64, 1), Status::Ok);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 128, 2), Status::Stalled);
  sim.clock();
  sim.clock();  // crossbar forwarded both to vaults
  EXPECT_EQ(send_request(sim, 0, 0, Command::Rd16, 128, 2), Status::Ok);
  const auto responses = test::drain_all(sim);
  EXPECT_EQ(responses.size(), 3u);
}

TEST(Backpressure, VaultQueueFullRaisesXbarStall) {
  // Tiny vault queue + many same-vault requests: the crossbar cannot
  // forward them all and must raise crossbar request stalls.
  DeviceConfig dc = small_device();
  dc.vault_depth = 2;
  dc.bank_busy_cycles = 50;  // keep the vault from draining
  Simulator sim = make_simple_sim(dc);
  // All to the same vault AND same bank.
  for (Tag t = 0; t < 8; ++t) {
    ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0, t), Status::Ok);
  }
  for (int i = 0; i < 6; ++i) sim.clock();
  EXPECT_GT(sim.stats(0).xbar_rqst_stalls, 0u);
  // Everything still completes eventually.
  const auto responses = test::drain_all(sim, 2000);
  EXPECT_EQ(responses.size(), 8u);
}

TEST(Backpressure, BlockedVaultDoesNotBlockOtherVaults) {
  // Weak ordering: packets to other vaults may pass one stalled at a full
  // vault queue.
  DeviceConfig dc = small_device();
  dc.vault_depth = 1;
  dc.bank_busy_cycles = 60;
  Simulator sim = make_simple_sim(dc);
  const AddressMap& map = sim.device(0).address_map();
  // Addresses for vault 0 (several, to clog it) and vault 1.
  PhysAddr v0 = 0, v1 = 0;
  for (PhysAddr a = 0; a < (1 << 16); a += 16) {
    if (map.vault_of(a) == 1) {
      v1 = a;
      break;
    }
  }
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, v0, 0), Status::Ok);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, v0, 1), Status::Ok);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, v0, 2), Status::Ok);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, v1, 3), Status::Ok);
  // The vault-1 read (queued last!) completes while vault 0 is clogged.
  auto first = await_response(sim, 0, 0, 50);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tag, 0u);  // first v0 read retires normally
  auto second = await_response(sim, 0, 0, 50);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tag, 3u);  // v1 passed the two stalled v0 reads
  const auto rest = test::drain_all(sim, 2000);
  EXPECT_EQ(rest.size(), 2u);
}

TEST(Backpressure, ResponseQueuePressureThrottlesVault) {
  // If the host never drains, response queues fill all the way back to the
  // vault; retirement must pause rather than drop responses.
  DeviceConfig dc = small_device();
  dc.xbar_depth = 2;
  dc.vault_depth = 2;
  dc.bank_busy_cycles = 1;
  Simulator sim = make_simple_sim(dc);

  u64 sent = 0;
  for (Tag t = 0; t < 12; ++t) {
    if (ok(send_request(sim, 0, 0, Command::Rd16, 64 * (t % 4), t))) ++sent;
    sim.clock();
  }
  for (int i = 0; i < 50; ++i) sim.clock();  // no recv: back up completely
  EXPECT_GT(sim.stats(0).vault_rsp_stalls + sim.stats(0).xbar_rsp_stalls, 0u);

  // Nothing was lost: once the host drains, every request answers.
  const auto responses = test::drain_all(sim, 2000);
  EXPECT_EQ(responses.size(), sent);
}

TEST(Backpressure, QueueStatsHighWaterReflectsPressure) {
  DeviceConfig dc = small_device();
  dc.xbar_depth = 8;
  Simulator sim = make_simple_sim(dc);
  for (Tag t = 0; t < 8; ++t) {
    ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 64 * t, t), Status::Ok);
  }
  EXPECT_EQ(sim.device(0).links[0].rqst.stats().high_water, 8u);
  (void)test::drain_all(sim);
}

TEST(Backpressure, ManyOutstandingAllComplete) {
  // Saturation smoke test on the small config: 200 requests across all
  // links with interleaved draining.
  Simulator sim = make_simple_sim();
  u64 sent = 0, completed = 0;
  Tag tag = 0;
  PacketBuffer pkt;
  while (completed < 200) {
    while (sent < 200) {
      const Status s = send_request(sim, 0, static_cast<u32>(sent % 4),
                                    Command::Rd16,
                                    (sent * 64) % (1 << 20),
                                    tag = static_cast<Tag>(sent % 512));
      if (s == Status::Stalled) break;
      ASSERT_EQ(s, Status::Ok);
      ++sent;
    }
    for (u32 l = 0; l < 4; ++l) {
      while (ok(sim.recv(0, l, pkt))) ++completed;
    }
    sim.clock();
    ASSERT_LT(sim.now(), 5000u) << "deadlock: " << completed << "/200";
  }
  EXPECT_EQ(completed, 200u);
}

}  // namespace
}  // namespace hmcsim
