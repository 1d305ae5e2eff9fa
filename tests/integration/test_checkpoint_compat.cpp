// Checkpoint backward-compatibility: every format version back to 2 must
// restore into the current simulator and replay deterministically.
//
// Committed binary fixtures live under tests/golden/checkpoints/:
//
//   checkpoint_v2.bin  pre-RAS era: no RAS config/stats/registers, no
//                      fault sidecar, no watchdog tail, no per-vault RNG
//   checkpoint_v3.bin  RAS era: full config/stats/registers + RAS tail,
//                      but the DRAM fault RNG is still device-wide
//   checkpoint_v4.bin  per-vault DRAM RNG, but no link-layer protocol
//                      records
//   checkpoint_v5.bin  link-layer config/stats/registers and per-link
//                      retry/token state, still one continuous stream
//   checkpoint_v6.bin  framed container: same records, split into
//                      sections with per-section length + CRC-32K and a
//                      trailer magic — but no timing-backend records
//   checkpoint_v7.bin  adds the backend config knobs, the
//                      pcm_write_throttle_stalls counter, and a per-vault
//                      backend-private state frame (this fixture runs
//                      pcm_like/generic_ddr vault overrides so the frames
//                      carry real state)
//   checkpoint_v8.bin  current: adds the optional CHAO section (this
//                      fixture freezes a machine mid-chaos-storm, events
//                      applied AND still pending, so the campaign cursor,
//                      baselines, and plan bytes are all exercised)
//
// Each fixture snapshots a mid-flight workload — requests in crossbar and
// vault queues, banks busy, memory pages resident — so restore exercises
// every record type, not just the config header.  The tests restore each
// fixture into a fresh simulator, replay 1000 cycles, and require (a) the
// machine drains and retires work, and (b) the replay is bit-identical
// across thread counts and fast-forward settings — proving old-version
// restores land in a fully coherent state, not merely a parseable one.
//
// The v2/v3 writers below mirror the historical put-side of
// src/core/checkpoint.cpp.  To regenerate after an intentional format
// change:
//
//   HMCSIM_UPDATE_GOLDEN=1 ctest -R CheckpointCompat
//
// then commit the new fixtures like any other source change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "tests/core/helpers.hpp"
#include "topo/topology.hpp"
#include "workload/driver.hpp"

#ifndef HMCSIM_GOLDEN_DIR
#define HMCSIM_GOLDEN_DIR "tests/golden"
#endif

namespace hmcsim {
namespace {

constexpr char kMagic[8] = {'H', 'M', 'C', 'S', 'I', 'M', 'C', 'K'};
constexpr usize kV2RegCount = 43;
constexpr usize kV3RegCount = 49;
constexpr usize kV2StatsCount = 25;
constexpr usize kV3StatsCount = 33;

std::string fixture_path(u32 version) {
  return std::string(HMCSIM_GOLDEN_DIR) + "/checkpoints/checkpoint_v" +
         std::to_string(version) + ".bin";
}

// ---- legacy put-side (mirrors src/core/checkpoint.cpp's framing) ----------

void put_u64(std::ostream& os, u64 v) {
  u8 bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<u8>(v >> (8 * i));
  os.write(reinterpret_cast<const char*>(bytes), 8);
}

void put_u32(std::ostream& os, u32 v) { put_u64(os, v); }
void put_u8(std::ostream& os, u8 v) { put_u64(os, v); }

void put_packet(std::ostream& os, const PacketBuffer& pkt) {
  put_u32(os, pkt.flits);
  for (usize i = 0; i < pkt.word_count(); ++i) put_u64(os, pkt.words[i]);
}

void put_queue_stats(std::ostream& os, const QueueStats& s) {
  put_u64(os, s.total_pushes);
  put_u64(os, s.total_pops);
  put_u64(os, s.rejected_full);
  put_u64(os, s.high_water);
}

void put_lifecycle(std::ostream& os, const PacketLifecycle& lc) {
  put_u64(os, lc.inject);
  put_u64(os, lc.vault_arrive);
  put_u64(os, lc.first_conflict);
  put_u64(os, lc.retire);
  put_u64(os, lc.rsp_register);
  put_u64(os, lc.drain);
  put_u32(os, lc.dev);
  put_u32(os, lc.vault);
  put_u32(os, lc.link);
  put_u32(os, lc.tag);
  put_u8(os, static_cast<u8>(lc.cmd));
}

void put_request_queue(std::ostream& os, const BoundedQueue<RequestEntry>& q) {
  put_u64(os, q.size());
  for (const RequestEntry& e : q) {
    put_packet(os, e.pkt);
    put_u64(os, e.ready_cycle);
    put_u32(os, e.home_dev);
    put_u32(os, e.home_link);
    put_u32(os, e.ingress_link);
    put_u8(os, e.penalty_applied ? 1 : 0);
    put_u8(os, e.retries);
    put_lifecycle(os, e.life);
  }
  put_queue_stats(os, q.stats());
}

void put_response_queue(std::ostream& os,
                        const BoundedQueue<ResponseEntry>& q) {
  put_u64(os, q.size());
  for (const ResponseEntry& e : q) {
    put_packet(os, e.pkt);
    put_u64(os, e.ready_cycle);
    put_u32(os, e.home_dev);
    put_u32(os, e.home_link);
    put_lifecycle(os, e.life);
  }
  put_queue_stats(os, q.stats());
}

void put_stats(std::ostream& os, const DeviceStats& s, u32 version) {
  const u64 fields[] = {s.reads, s.writes, s.atomics, s.mode_ops,
                        s.custom_ops, s.bytes_read, s.bytes_written,
                        s.responses, s.error_responses, s.bank_conflicts,
                        s.xbar_rqst_stalls, s.xbar_rsp_stalls,
                        s.vault_rsp_stalls, s.latency_penalties, s.route_hops,
                        s.misroutes, s.link_errors, s.link_retries,
                        s.refreshes, s.row_hits, s.row_misses, s.sends,
                        s.send_stalls, s.recvs, s.flow_packets,
                        s.dram_sbes, s.dram_dbes, s.scrub_steps,
                        s.scrub_corrections, s.scrub_uncorrectables,
                        s.vault_failures, s.vault_remaps, s.degraded_drops,
                        s.link_crc_errors, s.link_seq_errors,
                        s.link_abort_entries, s.link_irtry_tx,
                        s.link_irtry_rx, s.link_pret_tx, s.link_tret_tx,
                        s.link_replayed_flits, s.link_token_stalls,
                        s.link_retrain_cycles, s.link_failures,
                        s.link_tokens_debited, s.link_tokens_returned};
  const usize count = version >= 5   ? std::size(fields)
                      : version >= 3 ? kV3StatsCount
                                     : kV2StatsCount;
  for (usize i = 0; i < count; ++i) put_u64(os, fields[i]);
}

void put_device_config(std::ostream& os, const DeviceConfig& c, u32 version) {
  put_u32(os, c.num_links);
  put_u32(os, c.banks_per_vault);
  put_u32(os, c.drams_per_bank);
  put_u64(os, c.xbar_depth);
  put_u64(os, c.vault_depth);
  put_u64(os, c.capacity_bytes);
  put_u8(os, static_cast<u8>(c.map_mode));
  put_u64(os, c.max_block_bytes);
  put_u32(os, c.bank_busy_cycles);
  put_u32(os, c.xbar_flits_per_cycle);
  put_u32(os, c.vault_drain_limit);
  put_u32(os, c.nonlocal_penalty_cycles);
  put_u32(os, c.conflict_window);
  put_u8(os, static_cast<u8>(c.vault_schedule));
  put_u32(os, c.link_error_rate_ppm);
  put_u64(os, c.fault_seed);
  put_u32(os, c.link_retry_limit);
  put_u32(os, c.refresh_interval_cycles);
  put_u32(os, c.refresh_busy_cycles);
  put_u8(os, static_cast<u8>(c.row_policy));
  put_u32(os, c.row_hit_cycles);
  put_u32(os, c.row_miss_cycles);
  put_u8(os, c.model_data ? 1 : 0);
  if (version >= 3) {
    put_u32(os, c.dram_sbe_rate_ppm);
    put_u32(os, c.dram_dbe_rate_ppm);
    put_u32(os, c.scrub_interval_cycles);
    put_u64(os, c.scrub_window_bytes);
    put_u32(os, c.vault_fail_threshold);
    put_u64(os, c.failed_vault_mask);
    put_u8(os, c.vault_remap ? 1 : 0);
    put_u32(os, c.watchdog_cycles);
  }
  if (version >= 5) {
    put_u8(os, c.link_protocol ? 1 : 0);
    put_u32(os, c.link_tokens);
    put_u32(os, c.link_retry_buffer_flits);
    put_u32(os, c.link_retry_latency);
    put_u32(os, c.link_error_burst_len);
    put_u32(os, c.link_stuck_interval_cycles);
    put_u32(os, c.link_stuck_window_cycles);
    put_u32(os, c.link_fail_threshold);
  }
}

void put_link_proto(std::ostream& os, const LinkProtoState& st) {
  put_u64(os, static_cast<u64>(st.tokens));
  put_u64(os, st.tokens_debited);
  put_u64(os, st.tokens_returned);
  put_u32(os, st.retry_buf_flits);
  put_u8(os, st.tx_frp);
  put_u8(os, st.rx_rrp);
  put_u8(os, st.tx_seq);
  put_u8(os, st.rx_seq);
  put_u64(os, st.retrain_until);
  put_u32(os, st.burst_remaining);
  put_u32(os, st.fail_count);
  put_u8(os, st.dead ? 1 : 0);
  put_u8(os, st.replay_pending ? 1 : 0);
  if (st.replay_pending) {
    put_packet(os, st.replay.pkt);
    put_u64(os, st.replay.ready_cycle);
    put_u32(os, st.replay.home_dev);
    put_u32(os, st.replay.home_link);
    put_u32(os, st.replay.ingress_link);
    put_u8(os, st.replay.penalty_applied ? 1 : 0);
    put_u8(os, st.replay.retries);
    put_lifecycle(os, st.replay.life);
  }
}

/// Serialize `sim` in a historical checkpoint format (version 2..5).
/// Mirrors what those writers emitted: one continuous unframed stream, the
/// register prefix of the era, link-layer records only from v5, per-vault
/// RNG only from v4, and (for v2) no RAS or watchdog records.
void write_legacy_checkpoint(const Simulator& sim, u32 version,
                             std::ostream& os) {
  os.write(kMagic, sizeof kMagic);
  put_u32(os, version);
  put_u32(os, sim.num_devices());
  put_device_config(os, sim.config().device, version);

  const Topology& topo = sim.topology();
  put_u32(os, topo.num_devices());
  put_u32(os, topo.links_per_device());
  for (u32 d = 0; d < topo.num_devices(); ++d) {
    for (u32 l = 0; l < topo.links_per_device(); ++l) {
      const LinkEndpoint& e = topo.endpoint(CubeId{d}, LinkId{l});
      put_u8(os, static_cast<u8>(e.kind));
      put_u32(os, e.peer_dev);
      put_u32(os, e.peer_link);
    }
  }

  put_u64(os, sim.now());

  for (u32 d = 0; d < sim.num_devices(); ++d) {
    const Device& dev = sim.device(d);
    put_stats(os, dev.stats, version);

    const RegisterFile::Snapshot regs = dev.regs.snapshot();
    const usize reg_count = version >= 5   ? regs.values.size()
                            : version >= 3 ? kV3RegCount
                                           : kV2RegCount;
    for (usize r = 0; r < reg_count; ++r) put_u64(os, regs.values[r]);
    for (usize r = 0; r < reg_count; ++r) {
      put_u8(os, regs.pending_self_clear[r] ? 1 : 0);
    }

    std::vector<u64> page_indices;
    page_indices.reserve(dev.store.resident_pages());
    dev.store.for_each_page([&](u64 index, std::span<const u8>) {
      page_indices.push_back(index);
    });
    std::sort(page_indices.begin(), page_indices.end());
    put_u64(os, page_indices.size());
    std::vector<u8> page_bytes(SparseStore::kPageBytes);
    for (const u64 index : page_indices) {
      put_u64(os, index);
      (void)dev.store.read(index * SparseStore::kPageBytes, page_bytes);
      os.write(reinterpret_cast<const char*>(page_bytes.data()),
               static_cast<std::streamsize>(page_bytes.size()));
    }

    for (const LinkState& link : dev.links) {
      put_request_queue(os, link.rqst);
      put_response_queue(os, link.rsp);
      put_u64(os, link.rqst_flits_forwarded);
      put_u64(os, link.rsp_flits_forwarded);
      put_u64(os, static_cast<u64>(link.rqst_budget));
      put_u64(os, static_cast<u64>(link.rsp_budget));
      if (version >= 5) put_link_proto(os, link.proto);
    }
    for (const VaultState& vault : dev.vaults) {
      put_request_queue(os, vault.rqst);
      put_response_queue(os, vault.rsp);
      for (const Cycle busy : vault.bank_busy_until) put_u64(os, busy);
      for (const u64 row : vault.open_row) put_u64(os, row);
      // No per-vault DRAM RNG before version 4.
      if (version >= 4) put_u64(os, vault.dram_rng.state());
    }
    put_response_queue(os, dev.mode_rsp);

    if (version >= 3) {
      put_u64(os, dev.fault_rng.state());
      put_u64(os, dev.store.fault_count());
      dev.store.for_each_fault([&](u64 word, u64 data_flips, u8 check_flips) {
        put_u64(os, word);
        put_u64(os, data_flips);
        put_u8(os, check_flips);
      });
      put_u64(os, dev.ras.failed_vaults);
      for (const u32 count : dev.ras.vault_uncorrectable) put_u32(os, count);
      put_u64(os, dev.ras.scrub_cursor);
      put_u64(os, dev.ras.scrub_passes);
      put_u64(os, dev.ras.last_error_addr);
      put_u8(os, dev.ras.last_error_stat);
    }
  }

  if (version >= 3) {
    put_u8(os, sim.watchdog_fired() ? 1 : 0);
    put_u32(os, 0);  // stall cycles: fixture sims never configure a watchdog
    put_u64(os, 0);  // frozen fingerprint likewise unused
  }
}

// ---- fixture workload ------------------------------------------------------

/// A v2-era fixture must not depend on RAS; v3+ fixtures turn the storm on;
/// the v5 fixture additionally runs the link retry/token protocol so the
/// per-link LinkProtoState records are exercised mid-recovery.
DeviceConfig fixture_device(u32 version) {
  DeviceConfig dc = test::small_device();
  if (version >= 3) {
    dc.dram_sbe_rate_ppm = 20000;
    dc.dram_dbe_rate_ppm = 4000;
    dc.scrub_interval_cycles = 128;
    dc.vault_fail_threshold = 4;
    dc.link_error_rate_ppm = 2000;
    dc.link_retry_limit = 3;
  }
  if (version >= 5) {
    dc.link_protocol = true;
    dc.link_retry_latency = 6;
    dc.link_error_burst_len = 2;
  }
  if (version >= 7) {
    // Mixed per-vault backends with a write gap so the v7 fixture's
    // backend-state frames hold live (nonzero) private state.
    dc.vault_backends = {{1, TimingBackend::PcmLike},
                         {2, TimingBackend::GenericDdr}};
    dc.pcm_write_gap_cycles = 12;
  }
  return dc;
}

/// Drive a seeded workload and stop mid-flight, leaving requests in
/// crossbar and vault queues so the fixture exercises every record type.
void build_fixture_state(u32 version, Simulator& sim) {
  ASSERT_EQ(sim.init_simple(fixture_device(version)), Status::Ok);
  if (version >= 8) {
    // Freeze mid-campaign: some events already applied (the storm is open
    // when the fixture snapshots), one far-future event still pending, so
    // the CHAO cursor sits strictly inside the plan.
    const char* kPlan =
        "at 10 link_error_ppm 3000\n"
        "at 30 dram_sbe_ppm 9000\n"
        "storm 40 50000\n"
        "  wedge 1\n"
        "  host_timeout 500\n"
        "end\n"
        "at 100000 link_burst 4\n";
    ChaosPlanParseResult parsed = parse_chaos_plan_string(kPlan);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::string diag;
    ASSERT_EQ(sim.set_chaos_plan(std::move(parsed.plan), &diag), Status::Ok)
        << diag;
  }
  GeneratorConfig gc;
  // Confine traffic to a 256 KiB window: the low-interleave map still
  // spreads it across every vault and bank, but the resident-page count is
  // bounded so the committed fixtures stay small.
  gc.capacity_bytes =
      std::min<u64>(sim.config().device.derived_capacity(), u64{1} << 18);
  gc.seed = 20240 + version;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 2000;
  dcfg.max_cycles = 100000;
  HostDriver driver(sim, gen, dcfg);
  DriverResult r;
  for (int steps = 0; steps < 120 && driver.step(r); ++steps) {
  }
  ASSERT_FALSE(sim.quiescent())
      << "fixture must snapshot a busy machine, not a drained one";
}

void regenerate_fixture(u32 version) {
  Simulator sim;
  build_fixture_state(version, sim);
  std::ofstream out(fixture_path(version), std::ios::binary);
  ASSERT_TRUE(out) << "cannot write " << fixture_path(version)
                   << " (does tests/golden/checkpoints/ exist?)";
  if (version >= 6) {
    ASSERT_EQ(sim.save_checkpoint(out), Status::Ok);
  } else {
    write_legacy_checkpoint(sim, version, out);
    ASSERT_TRUE(out);
  }
}

std::string read_fixture(u32 version) {
  std::ifstream in(fixture_path(version), std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << fixture_path(version)
                  << "; regenerate with HMCSIM_UPDATE_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// Defined first in the suite so regeneration happens before the restore
// tests read the files back.
TEST(CheckpointCompat, RegenerateFixtures) {
  if (std::getenv("HMCSIM_UPDATE_GOLDEN") == nullptr) {
    GTEST_SKIP() << "set HMCSIM_UPDATE_GOLDEN=1 to rewrite fixtures";
  }
  // v6 and v7 are deliberately absent: save_checkpoint now writes v8, so
  // the committed v6/v7 fixtures are frozen — regenerating them would
  // silently turn them into v8 streams and lose the coverage.
  for (const u32 version : {2u, 3u, 4u, 5u, 8u}) {
    SCOPED_TRACE("v" + std::to_string(version));
    regenerate_fixture(version);
  }
}

struct ReplayOutcome {
  Cycle start{0};
  Cycle end{0};
  u64 retired_delta{0};
  std::string checkpoint;
};

ReplayOutcome restore_and_replay(const std::string& bytes, bool fast_forward) {
  ReplayOutcome out;
  Simulator sim;
  // Pre-init with the desired execution strategy: restore replaces the
  // simulated config from the stream but keeps fast_forward.
  DeviceConfig dc = test::small_device();
  dc.fast_forward = fast_forward;
  EXPECT_EQ(sim.init_simple(dc), Status::Ok);
  std::istringstream is(bytes);
  EXPECT_EQ(sim.restore_checkpoint(is), Status::Ok);
  if (sim.now() == 0) return out;  // restore failed; EXPECTs already flagged
  out.start = sim.now();
  const u64 retired_before = sim.total_stats().retired();
  for (int i = 0; i < 1000; ++i) sim.clock();
  out.end = sim.now();
  out.retired_delta = sim.total_stats().retired() - retired_before;
  std::ostringstream ckpt;
  EXPECT_EQ(sim.save_checkpoint(ckpt), Status::Ok);
  out.checkpoint = std::move(ckpt).str();
  return out;
}

class CheckpointCompatVersions : public ::testing::TestWithParam<u32> {};

TEST_P(CheckpointCompatVersions, RestoresAndReplays1kCycles) {
  const u32 version = GetParam();
  const std::string bytes = read_fixture(version);
  ASSERT_FALSE(bytes.empty());

  const ReplayOutcome ref = restore_and_replay(bytes, false);
  ASSERT_GT(ref.start, 0u) << "fixture restored to cycle 0 — empty state?";
  EXPECT_EQ(ref.end, ref.start + 1000);
  // The fixture froze a busy machine: replay must retire the in-flight
  // work, proving the restored queues/banks/registers are coherent.
  EXPECT_GT(ref.retired_delta, 0u);
  ASSERT_FALSE(ref.checkpoint.empty());

  // Old-version restores must land in a state the *current* engine treats
  // as canonical: the replay agrees bit-for-bit with fast-forward on.
  const ReplayOutcome got = restore_and_replay(bytes, true);
  EXPECT_EQ(got.end, ref.end);
  EXPECT_EQ(got.retired_delta, ref.retired_delta);
  EXPECT_EQ(got.checkpoint, ref.checkpoint);
}

TEST_P(CheckpointCompatVersions, ResaveUpgradesToCurrentVersion) {
  const u32 version = GetParam();
  const std::string bytes = read_fixture(version);
  ASSERT_FALSE(bytes.empty());

  Simulator sim;
  std::istringstream is(bytes);
  ASSERT_EQ(sim.restore_checkpoint(is), Status::Ok);
  std::ostringstream resaved;
  ASSERT_EQ(sim.save_checkpoint(resaved), Status::Ok);
  const std::string upgraded = std::move(resaved).str();

  // The re-save is a current-version stream that round-trips exactly.
  Simulator again;
  std::istringstream is2(upgraded);
  ASSERT_EQ(again.restore_checkpoint(is2), Status::Ok);
  std::ostringstream resaved2;
  ASSERT_EQ(again.save_checkpoint(resaved2), Status::Ok);
  EXPECT_EQ(std::move(resaved2).str(), upgraded);

  if (version == 8) {
    // Same-version fixtures must survive restore→save byte-identically.
    EXPECT_EQ(upgraded, bytes);
  } else {
    EXPECT_NE(upgraded, bytes) << "legacy stream cannot equal a v8 stream";
  }
}

TEST(CheckpointCompat, UnknownVersionsStillRejected) {
  // Truncate-proofing: versions below 2 and above the current one fail
  // cleanly rather than misparsing fields at shifted offsets.
  const std::string bytes = read_fixture(4);
  ASSERT_GT(bytes.size(), 16u);
  for (const u64 bad_version : {0ull, 1ull, 9ull, 255ull}) {
    std::string mutated = bytes;
    for (int i = 0; i < 8; ++i) {
      mutated[8 + i] = static_cast<char>(bad_version >> (8 * i));
    }
    Simulator sim;
    std::istringstream is(mutated);
    EXPECT_EQ(sim.restore_checkpoint(is), Status::MalformedPacket)
        << "version " << bad_version;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, CheckpointCompatVersions,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hmcsim
