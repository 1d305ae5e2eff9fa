// Spec link-layer reliability (docs/LINK_LAYER.md): retry buffers, token
// flow control, SEQ continuity, the IRTRY error-abort machine, burst and
// stuck-link fault modes, dead-link escalation, and checkpoint round-trips
// of mid-recovery state.
#include <gtest/gtest.h>

#include <sstream>

#include "core/link_layer.hpp"
#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

using test::await_response;
using test::drain_all;
using test::proto_device;
using test::send_request;
using test::small_device;

/// Per-device credit-loop identity: every pool back at its fixed point and
/// lifetime debits equal lifetime returns.  Holds at quiescence for every
/// fault mode short of a dead link (a dead link freezes the loop).
void expect_tokens_conserved(const Simulator& sim) {
  const i64 pool = resolved_link_tokens(sim.config().device);
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    const Device& dev = sim.device(d);
    for (u32 l = 0; l < dev.links.size(); ++l) {
      const LinkProtoState& st = dev.links[l].proto;
      SCOPED_TRACE("dev " + std::to_string(d) + " link " + std::to_string(l));
      EXPECT_EQ(st.tokens, pool);
      EXPECT_EQ(st.tokens_debited, st.tokens_returned);
      EXPECT_EQ(st.retry_buf_flits, 0u);
      EXPECT_FALSE(st.replay_pending);
    }
  }
}

/// Run a seeded random workload to completion and return the result.
DriverResult run_workload(Simulator& sim, u64 requests, u32 seed = 7,
                          u64 max_cycles = 400000) {
  GeneratorConfig gc;
  gc.capacity_bytes = sim.config().device.derived_capacity();
  gc.seed = seed;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = requests;
  dcfg.max_cycles = max_cycles;
  HostDriver driver(sim, gen, dcfg);
  return driver.run();
}

TEST(LinkLayer, CleanTrafficCompletesAndConservesTokens) {
  Simulator sim = test::make_simple_sim(proto_device());
  const DriverResult r = run_workload(sim, 2000);
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_TRUE(sim.quiescent());
  expect_tokens_conserved(sim);

  const DeviceStats s = sim.total_stats();
  EXPECT_GT(s.link_tret_tx, 0u);       // credits really cycled
  EXPECT_GT(s.link_tokens_debited, 0u);
  EXPECT_EQ(s.link_crc_errors, 0u);    // no fault model configured
  EXPECT_EQ(s.link_seq_errors, 0u);
  EXPECT_EQ(s.link_retries, 0u);
  EXPECT_EQ(s.link_errors, 0u);
}

TEST(LinkLayer, ProtocolMatchesLegacyCompletionCounts) {
  // The protocol reorders nothing and loses nothing: the same error-free
  // workload retires identically with the layer on and off.
  DeviceConfig off = small_device();
  DeviceConfig on = proto_device();
  Simulator sim_off = test::make_simple_sim(off);
  Simulator sim_on = test::make_simple_sim(on);
  const DriverResult r_off = run_workload(sim_off, 1500);
  const DriverResult r_on = run_workload(sim_on, 1500);
  EXPECT_EQ(r_off.completed, r_on.completed);
  EXPECT_EQ(r_off.errors, r_on.errors);
  EXPECT_EQ(sim_off.total_stats().retired(), sim_on.total_stats().retired());
}

TEST(LinkLayer, TokenExhaustionBlocksInjection) {
  DeviceConfig dc = proto_device();
  dc.link_tokens = spec::kMaxPacketFlits;  // one maximal packet's credits
  Simulator sim = test::make_simple_sim(dc);

  // A maximal 9-FLIT write swallows the entire credit pool in one packet,
  // so the next injection — a single-FLIT read that the request queue has
  // ample room for — must block on tokens, not on queue space.
  ASSERT_EQ(send_request(sim, 0, 0, Command::Wr128, 0x80, 1), Status::Ok);
  EXPECT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x40, 2), Status::Stalled);
  EXPECT_GT(sim.stats(0).link_token_stalls, 0u);
  EXPECT_GT(sim.stats(0).send_stalls, 0u);

  // Draining the machine returns every credit; injection resumes.
  (void)drain_all(sim);
  expect_tokens_conserved(sim);
  EXPECT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x4000, 99), Status::Ok);
}

TEST(LinkLayer, ErrorAbortRecoversEveryPacket) {
  DeviceConfig dc = proto_device();
  dc.link_error_rate_ppm = 150'000;
  dc.link_retry_limit = 16;
  dc.link_retry_latency = 4;
  Simulator sim = test::make_simple_sim(dc);

  const DriverResult r = run_workload(sim, 2000, 11);
  // Reliability is the point: every corrupted transmission is replayed to
  // completion and the host never sees an error.
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_EQ(r.errors, 0u);
  expect_tokens_conserved(sim);

  const DeviceStats s = sim.total_stats();
  EXPECT_GT(s.link_retries, 0u);
  EXPECT_GT(s.link_crc_errors + s.link_seq_errors, 0u);
  EXPECT_GT(s.link_abort_entries, 0u);
  EXPECT_EQ(s.link_pret_tx, s.link_abort_entries);  // one PRET per abort
  EXPECT_GT(s.link_irtry_tx, s.link_abort_entries); // StartRetry + ClearError
  EXPECT_GT(s.link_replayed_flits, 0u);
  EXPECT_EQ(s.link_errors, 0u);  // no packet exhausted its budget
}

TEST(LinkLayer, SeqAndCrcFlavorsBothDetected) {
  DeviceConfig dc = proto_device();
  dc.link_error_rate_ppm = 300'000;
  dc.link_retry_limit = 32;
  dc.link_retry_latency = 2;
  Simulator sim = test::make_simple_sim(dc);
  const DriverResult r = run_workload(sim, 1500, 23);
  EXPECT_EQ(r.errors, 0u);
  const DeviceStats s = sim.total_stats();
  // The injector alternates flavors off the RNG roll: a healthy sample
  // must observe both SEQ discontinuities and CRC failures.
  EXPECT_GT(s.link_seq_errors, 0u);
  EXPECT_GT(s.link_crc_errors, 0u);
}

TEST(LinkLayer, BurstErrorsClusterOnTheLink) {
  DeviceConfig dc = proto_device();
  dc.link_error_rate_ppm = 40'000;
  dc.link_error_burst_len = 4;
  dc.link_retry_limit = 32;
  dc.link_retry_latency = 2;
  Simulator sim = test::make_simple_sim(dc);
  const DriverResult r = run_workload(sim, 2000, 31);
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_EQ(r.errors, 0u);
  expect_tokens_conserved(sim);
  const DeviceStats s = sim.total_stats();
  // Burst continuations are forced CRC failures, so CRC must dominate the
  // SEQ flavor (which only fresh rolls can pick).
  EXPECT_GT(s.link_crc_errors, s.link_seq_errors);
  EXPECT_GT(s.link_retries, 0u);
}

TEST(LinkLayer, StuckLinkRetrainsWithoutLoss) {
  DeviceConfig dc = proto_device();
  dc.link_stuck_interval_cycles = 64;
  dc.link_stuck_window_cycles = 8;
  Simulator sim = test::make_simple_sim(dc);
  const DriverResult r = run_workload(sim, 2000, 5);
  // Retraining windows backpressure; they never drop.
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_EQ(r.errors, 0u);
  expect_tokens_conserved(sim);
  EXPECT_GT(sim.total_stats().link_retrain_cycles, 0u);
}

TEST(LinkLayer, DeadLinkEscalatesToHostVisibleError) {
  DeviceConfig dc = proto_device();
  dc.link_error_rate_ppm = 1'000'000;  // every transmission corrupts
  dc.link_retry_limit = 2;
  dc.link_retry_latency = 2;
  dc.link_fail_threshold = 1;  // first exhaustion kills the link
  Simulator sim = test::make_simple_sim(dc);

  // The packet that exhausts its retry budget answers CRC_FAILURE.
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x100, 1), Status::Ok);
  const auto first = await_response(sim, 0, 0, 400);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->errstat, ErrStat::CrcFailure);

  EXPECT_GE(sim.stats(0).link_failures, 1u);
  EXPECT_TRUE(sim.device(0).links[0].proto.dead);

  // Every later injection on the dead link is answered LINK_FAILED
  // immediately — deterministic failure, not a hang.
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x200, 2), Status::Ok);
  const auto second = await_response(sim, 0, 0, 50);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->errstat, ErrStat::LinkFailed);

  // Failure is per-link: link 1 never carried traffic, so it is not dead —
  // and under the same total fault storm it answers with its own
  // deterministic CRC_FAILURE (retry exhaustion), not the dead link's
  // LINK_FAILED.
  EXPECT_FALSE(sim.device(0).links[1].proto.dead);
  ASSERT_EQ(send_request(sim, 0, 1, Command::Rd16, 0x300, 3), Status::Ok);
  const auto independent = await_response(sim, 0, 1, 400);
  ASSERT_TRUE(independent.has_value());
  EXPECT_EQ(independent->errstat, ErrStat::CrcFailure);
}

TEST(LinkLayer, RasRegistersExposeRetryAndTokenState) {
  DeviceConfig dc = proto_device();
  dc.link_error_rate_ppm = 1'000'000;
  dc.link_retry_limit = 1;
  dc.link_retry_latency = 2;
  dc.link_fail_threshold = 1;
  Simulator sim = test::make_simple_sim(dc);

  u64 tok = 0;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::RasLinkToken), tok),
            Status::Ok);
  // Idle: zero stalls, minimum pool equals the full pool.
  EXPECT_EQ(tok & 0xffffffffu, 0u);
  EXPECT_EQ((tok >> 32) & 0xffff, resolved_link_tokens(dc));

  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x100, 1), Status::Ok);
  ASSERT_TRUE(await_response(sim, 0, 0, 400).has_value());

  u64 retry = 0;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::RasLinkRetry), retry),
            Status::Ok);
  EXPECT_GT(retry & 0xffffffffu, 0u);        // replays
  EXPECT_GT((retry >> 32) & 0xffff, 0u);     // abort entries
  EXPECT_EQ((retry >> 48) & 0xff, 0x1u);     // link 0 dead
}

TEST(LinkLayer, WatchdogToleratesRecoveryWindows) {
  // A watchdog tight enough to misread an IRTRY exchange as deadlock is
  // rejected up front; a correctly-sized one stays quiet through a storm.
  DeviceConfig bad = proto_device();
  bad.link_retry_latency = 32;
  bad.watchdog_cycles = 30;
  EXPECT_EQ(bad.validate(), Status::InvalidConfig);

  DeviceConfig dc = proto_device();
  dc.link_error_rate_ppm = 150'000;
  dc.link_retry_limit = 16;
  dc.link_retry_latency = 8;
  dc.watchdog_cycles = 2000;
  Simulator sim = test::make_simple_sim(dc);
  const DriverResult r = run_workload(sim, 1000, 17);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_FALSE(sim.watchdog_fired());
}

TEST(LinkLayer, CheckpointRoundTripsMidRecovery) {
  DeviceConfig dc = proto_device();
  dc.link_error_rate_ppm = 250'000;
  dc.link_retry_limit = 16;
  dc.link_retry_latency = 8;
  dc.link_error_burst_len = 2;
  Simulator sim = test::make_simple_sim(dc);

  // Freeze a busy machine mid-storm so link protocol state (token debt,
  // retry pointers, possibly a held replay) is non-trivial.
  GeneratorConfig gc;
  gc.capacity_bytes = u64{1} << 18;
  gc.seed = 41;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 1200;
  dcfg.max_cycles = 100000;
  HostDriver driver(sim, gen, dcfg);
  DriverResult r;
  for (int steps = 0; steps < 100 && driver.step(r); ++steps) {
  }
  ASSERT_FALSE(sim.quiescent());

  std::ostringstream saved;
  ASSERT_EQ(sim.save_checkpoint(saved), Status::Ok);

  Simulator restored;
  std::istringstream is(saved.str());
  ASSERT_EQ(restored.restore_checkpoint(is), Status::Ok);

  // Identical continuations: the restored machine replays bit-for-bit.
  for (int i = 0; i < 500; ++i) {
    sim.clock();
    restored.clock();
  }
  std::ostringstream a, b;
  ASSERT_EQ(sim.save_checkpoint(a), Status::Ok);
  ASSERT_EQ(restored.save_checkpoint(b), Status::Ok);
  EXPECT_EQ(a.str(), b.str());
}

TEST(LinkLayer, CorruptPacketsRejectedAtEveryIngress) {
  // The retry machine's stored-copy CRC re-validation before a replay is
  // defense-in-depth, because no ingress path may seat a corrupt packet
  // in a queue in the first place.  Both host send paths — standard
  // requests (decode_request) and custom commands
  // (decode_custom_request) — must bounce a packet whose CRC no longer
  // matches its bits.
  DeviceConfig dc = small_device();
  Simulator sim = test::make_simple_sim(dc);

  PacketBuffer pkt;
  RequestFields rf;
  rf.cmd = Command::Rd16;
  rf.addr = 0x40;
  rf.tag = 1;
  rf.cub = 0;
  ASSERT_EQ(encode_request(rf, {}, pkt), Status::Ok);
  pkt.words[0] ^= u64{1} << 40;  // corrupt a header bit after sealing
  ASSERT_FALSE(check_crc(pkt));
  EXPECT_EQ(sim.send(0, 0, pkt), Status::MalformedPacket);

  constexpr u8 kNoop16 = 0x05;
  CustomCommandDef def;
  def.name = "NOOP16";
  def.request_flits = 1;
  def.response_flits = 2;
  def.access_bytes = 16;
  def.handler = [](std::span<u64>, std::span<const u64>,
                   std::span<u64> response) {
    for (u64& w : response) w = 0;
  };
  ASSERT_EQ(sim.register_custom_command(kNoop16, std::move(def)), Status::Ok);

  PacketBuffer custom;
  ASSERT_EQ(build_custom_request(sim.custom_commands(), kNoop16, 0, 0x40, 1,
                                 0, {}, custom),
            Status::Ok);
  custom.words[0] ^= u64{1} << 40;
  ASSERT_FALSE(check_crc(custom));
  EXPECT_EQ(sim.send(0, 0, custom), Status::MalformedPacket);

  // Nothing entered a queue; the device is untouched.
  EXPECT_TRUE(sim.quiescent());
  EXPECT_EQ(sim.stats(0).link_errors, 0u);
}

TEST(LinkLayer, RetrainingLinkRefusesBeforeDecoding) {
  // The link-protocol twin of Backpressure.SendStallsWhenXbarQueueFull: a
  // link that cannot transmit refuses a corrupt packet before decoding it,
  // counting a token stall; a dead link is never refused (it answers
  // LINK_FAILED), so there the same packet is decoded and bounced.
  DeviceConfig dc = proto_device();
  dc.link_stuck_interval_cycles = 64;
  dc.link_stuck_window_cycles = 8;
  Simulator sim = test::make_simple_sim(dc);
  while (!link_in_stuck_retrain(dc, sim.now())) sim.clock();

  PacketBuffer corrupt;
  ASSERT_EQ(build_memrequest(0, 0x40, 1, Command::Rd16, 0, {}, corrupt),
            Status::Ok);
  corrupt.words[0] ^= u64{1} << 40;  // a header bit, after sealing
  ASSERT_FALSE(check_crc(corrupt));
  EXPECT_EQ(sim.send(0, 0, corrupt), Status::Stalled);
  EXPECT_EQ(sim.stats(0).link_token_stalls, 1u);
  EXPECT_EQ(sim.stats(0).send_stalls, 1u);

  sim.device(0).links[0].proto.dead = true;
  EXPECT_EQ(sim.send(0, 0, corrupt), Status::MalformedPacket);
  EXPECT_EQ(sim.stats(0).link_token_stalls, 1u);
  EXPECT_EQ(sim.stats(0).send_stalls, 1u);
}

TEST(LinkLayer, FastForwardStaysBitIdenticalUnderProtocol) {
  // The idle-cycle fast path must refuse to skip over pending link
  // recovery; with that guard, skipping and slow-stepping agree exactly.
  DeviceConfig slow_cfg = proto_device();
  slow_cfg.link_error_rate_ppm = 100'000;
  slow_cfg.link_retry_limit = 16;
  slow_cfg.link_retry_latency = 16;
  slow_cfg.link_stuck_interval_cycles = 256;
  slow_cfg.link_stuck_window_cycles = 16;
  slow_cfg.fast_forward = false;
  DeviceConfig fast_cfg = slow_cfg;
  fast_cfg.fast_forward = true;

  Simulator slow = test::make_simple_sim(slow_cfg);
  Simulator fast = test::make_simple_sim(fast_cfg);

  for (int burst = 0; burst < 4; ++burst) {
    SCOPED_TRACE("burst " + std::to_string(burst));
    for (Tag t = 0; t < 8; ++t) {
      SCOPED_TRACE("t " + std::to_string(t));
      const Tag tag = static_cast<Tag>(burst * 8 + t);
      const PhysAddr addr = 0x1000 + 64 * tag;
      // A link mid-error-abort backpressures injection; retry in lockstep
      // (both machines roll identical faults, so they stall identically).
      for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 500);
        const Status ss = send_request(slow, 0, t % 4, Command::Rd16, addr,
                                       tag);
        const Status fs = send_request(fast, 0, t % 4, Command::Rd16, addr,
                                       tag);
        ASSERT_EQ(ss, fs);
        if (ss == Status::Ok) break;
        ASSERT_EQ(ss, Status::Stalled);
        slow.clock();
        fast.clock();
      }
    }
    // Long idle gap: the fast path may only arm once recovery drains.
    for (int i = 0; i < 2000; ++i) {
      slow.clock();
      fast.clock();
    }
  }
  EXPECT_EQ(slow.now(), fast.now());
  EXPECT_GT(fast.cycles_skipped(), 0u);

  std::ostringstream a, b;
  ASSERT_EQ(slow.save_checkpoint(a), Status::Ok);
  ASSERT_EQ(fast.save_checkpoint(b), Status::Ok);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace hmcsim
