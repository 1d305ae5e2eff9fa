// Checkpoint compatibility: every readable format version (v6 through the
// current v8) must restore into the current simulator and replay
// deterministically; older versions must be refused with a typed error.
//
// Committed binary fixtures live under tests/golden/checkpoints/:
//
//   checkpoint_v6.bin  framed container: records split into sections with
//                      per-section length + CRC-32K and a trailer magic —
//                      but no timing-backend records
//   checkpoint_v7.bin  adds the backend config knobs, the
//                      pcm_write_throttle_stalls counter, and a per-vault
//                      backend-private state frame (this fixture runs
//                      pcm_like/generic_ddr vault overrides so the frames
//                      carry real state)
//   checkpoint_v8.bin  current: adds the CHAO section (this fixture
//                      freezes a machine mid-chaos-storm, events applied
//                      AND still pending, so the campaign cursor,
//                      baselines, and plan bytes are all exercised)
//
// Each fixture snapshots a mid-flight workload — requests in crossbar and
// vault queues, banks busy, memory pages resident — so restore exercises
// every record type, not just the config header.  The tests restore each
// fixture into a fresh simulator, replay 1000 cycles, and require (a) the
// machine drains and retires work, and (b) the replay is bit-identical
// with fast-forward on and off — proving old-version restores land in a
// fully coherent state, not merely a parseable one.
//
// save_checkpoint writes only the current version, so only the v8 fixture
// can be regenerated; after an intentional format change:
//
//   HMCSIM_UPDATE_GOLDEN=1 ctest -R CheckpointCompat
//
// then commit the new fixture like any other source change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/plan.hpp"
#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

#ifndef HMCSIM_GOLDEN_DIR
#define HMCSIM_GOLDEN_DIR "tests/golden"
#endif

namespace hmcsim {
namespace {

std::string fixture_path(u32 version) {
  return std::string(HMCSIM_GOLDEN_DIR) + "/checkpoints/checkpoint_v" +
         std::to_string(version) + ".bin";
}

// ---- fixture workload ------------------------------------------------------

/// The v8 fixture runs the RAS storm, the link retry/token protocol (so
/// the per-link LinkProtoState records are exercised mid-recovery) and
/// mixed per-vault backends with a write gap (so the backend-state frames
/// hold live, nonzero private state).
DeviceConfig fixture_device() {
  DeviceConfig dc = test::small_device();
  dc.dram_sbe_rate_ppm = 20000;
  dc.dram_dbe_rate_ppm = 4000;
  dc.scrub_interval_cycles = 128;
  dc.vault_fail_threshold = 4;
  dc.link_error_rate_ppm = 2000;
  dc.link_retry_limit = 3;
  dc.link_protocol = true;
  dc.link_retry_latency = 6;
  dc.link_error_burst_len = 2;
  dc.vault_backends = {{1, TimingBackend::PcmLike},
                       {2, TimingBackend::GenericDdr}};
  dc.pcm_write_gap_cycles = 12;
  return dc;
}

/// Drive a seeded workload and stop mid-flight, leaving requests in
/// crossbar and vault queues so the fixture exercises every record type.
void build_fixture_state(Simulator& sim) {
  ASSERT_EQ(sim.init_simple(fixture_device()), Status::Ok);
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
  GeneratorConfig gc;
  // Confine traffic to a 256 KiB window: the low-interleave map still
  // spreads it across every vault and bank, but the resident-page count is
  // bounded so the committed fixtures stay small.
  gc.capacity_bytes =
      std::min<u64>(sim.config().device.derived_capacity(), u64{1} << 18);
  gc.seed = 20248;
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
  // Only v8 is written: save_checkpoint writes the current version, so
  // the committed v6/v7 fixtures are frozen — regenerating them would
  // silently turn them into v8 streams and lose the coverage.
  Simulator sim;
  build_fixture_state(sim);
  std::ofstream out(fixture_path(8), std::ios::binary);
  ASSERT_TRUE(out) << "cannot write " << fixture_path(8)
                   << " (does tests/golden/checkpoints/ exist?)";
  ASSERT_EQ(sim.save_checkpoint(out), Status::Ok);
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
    EXPECT_NE(upgraded, bytes) << "a v6/v7 stream cannot equal a v8 stream";
  }
}

TEST(CheckpointCompat, UnknownVersionsStillRejected) {
  // Versions outside [6, 8] fail in the preamble rather than misparsing
  // fields at shifted offsets — including the retired unframed v2..v5.
  const std::string bytes = read_fixture(8);
  ASSERT_GT(bytes.size(), 16u);
  for (const u64 bad_version : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 9ull,
                                255ull}) {
    std::string mutated = bytes;
    for (int i = 0; i < 8; ++i) {
      mutated[8 + i] = static_cast<char>(bad_version >> (8 * i));
    }
    Simulator sim;
    std::istringstream is(mutated);
    CheckpointError err;
    EXPECT_EQ(sim.restore_checkpoint(is, &err, nullptr),
              Status::MalformedPacket)
        << "version " << bad_version;
    EXPECT_EQ(err.code, CheckpointErrorCode::UnsupportedVersion)
        << "version " << bad_version;
    EXPECT_EQ(err.offset, 8u) << "version " << bad_version;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, CheckpointCompatVersions,
                         ::testing::Values(6u, 7u, 8u),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hmcsim
