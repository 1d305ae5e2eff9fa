// Differential proof that the idle-cycle fast-forward engine is equivalent
// to the staged path, and that the observability layer changes nothing it
// observes.
//
// The fast path only arms once every per-cycle idle mutation has reached
// its fixed point, and disarms before any cycle with a bounded event
// (scrub, refresh, hook), so skipping must be unobservable; the profiler,
// telemetry, tracer and flight recorder are pure observation.  This harness
// *proves* both promises over every row of the scenario table
// (scenario.hpp): each row runs staged (reference) and with fast-forward
// on, with idle windows injected between request bursts so the skip engine
// genuinely engages, under every timing backend, and with observability
// off and on.  Every observable output must match exactly: the row's
// digest (driver counters, lifecycle histograms, every cube's counters)
// and the complete checkpoint byte stream (queues, banks, RNGs, memory).
//
// On a checkpoint mismatch the harness re-runs the two configurations in
// lockstep, checkpointing every cycle, and reports the first cycle at
// which the machines diverge plus the first differing byte offset — the
// exact foothold needed to debug a determinism regression.  What the
// strategies agree on is pinned by the behaviour ledger (test_ledger.cpp).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tests/integration/scenario.hpp"

namespace hmcsim::test {
namespace {

/// Everything one run can observe, captured for exact comparison.
struct Outcome {
  DriverResult result;
  std::string digest;
  std::string checkpoint;
  DeviceStats totals;
  u64 cycles_skipped{0};
  /// The telemetry pass's rows; empty with observability off.
  std::vector<TelemetryRow> telemetry_rows;
};

/// One run's execution strategy (never simulation-visible).
struct RunCfg {
  bool fast_forward{false};
  /// Interleave idle windows between request bursts, so fast-forward runs
  /// genuinely enter and leave the skip path mid-traffic.  Pure execution
  /// pacing: the clock advances identically whether or not the skip
  /// engine is on.
  bool idle_windows{false};
  /// Turn the whole observability layer on (profiler + telemetry + flight
  /// recorder + a CountingSink on the tracer at TraceLevel::SubCycle).  All
  /// of it is pure observation, so every simulation observable must stay
  /// bit-identical to an observability-off run.
  bool observability{false};
};

Status build(const Scenario& s, const RunCfg& cfg, Simulator& sim,
             std::string* diag) {
  DeviceConfig dc = scenario_device(s);
  dc.fast_forward = cfg.fast_forward;
  if (cfg.observability) {
    dc.self_profile = true;
    // An odd interval stresses the fast-forward stop-bound arithmetic.
    dc.telemetry_interval_cycles = 7;
    dc.flight_recorder_depth = 64;
  }
  return build_sim(s, dc, sim, diag);
}

Outcome run_scenario(const Scenario& s, const RunCfg& cfg) {
  Outcome out;
  Simulator sim;
  std::string diag;
  EXPECT_EQ(build(s, cfg, sim, &diag), Status::Ok) << diag;
  auto counts = std::make_shared<CountingSink>();
  if (cfg.observability) {
    sim.tracer().set_level(TraceLevel::SubCycle);
    sim.tracer().add_sink(counts);
  }
  RowRun run(s, sim, cfg.idle_windows);
  run.finish();

  if (cfg.observability) {
    // Non-vacuousness: the observability layer must actually be observing,
    // or the equivalence below proves nothing.
    sim.flush_observability();
    EXPECT_NE(sim.profiler(), nullptr);
    EXPECT_GT(sim.profiler()->staged_cycles(), 0u);
    EXPECT_FALSE(sim.telemetry()->rows().empty());
    out.telemetry_rows = sim.telemetry()->rows();
    EXPECT_GT(counts->count(TraceEvent::PacketSend), 0u);
    // The ring files a record for every skip span, backpressure stall,
    // ECC event, vault failure and corrupted link arrival (each of which
    // transmits IRTRYs), so a run that counted any of them recorded some.
    const DeviceStats t = sim.total_stats();
    u64 recorded = 0;
    for (u32 d = 0; d < sim.num_devices(); ++d) {
      recorded += sim.flight_recorder()->recorded(d);
    }
    if (sim.cycles_skipped() + t.xbar_rqst_stalls + t.vault_rsp_stalls +
            t.dram_sbes + t.dram_dbes + t.vault_failures + t.link_irtry_tx !=
        0) {
      EXPECT_GT(recorded, 0u);
    }
  }
  if (cfg.idle_windows) {
    EXPECT_GT(run.windows(), 0u) << "no idle window opened mid-traffic";
  }

  out.result = run.result();
  out.digest = run.digest();
  out.totals = sim.total_stats();
  out.cycles_skipped = sim.cycles_skipped();
  std::ostringstream ckpt;
  EXPECT_EQ(sim.save_checkpoint(ckpt), Status::Ok);
  out.checkpoint = std::move(ckpt).str();
  return out;
}

std::string describe(const RunCfg& cfg) {
  return std::string("fast_forward ") + (cfg.fast_forward ? "on" : "off") +
         ", observability " + (cfg.observability ? "on" : "off");
}

/// Failure diagnostics: re-run configuration `a` vs `b` in lockstep,
/// checkpoint both machines every cycle, and report the first cycle they
/// diverge.  Idle windows are replayed too, so a skip-path divergence is
/// pinned to the exact cycle the fast path first corrupted state.
void diagnose_divergence(const Scenario& s, const RunCfg& a, const RunCfg& b) {
  Simulator sim_a;
  Simulator sim_b;
  ASSERT_EQ(build(s, a, sim_a, nullptr), Status::Ok);
  ASSERT_EQ(build(s, b, sim_b, nullptr), Status::Ok);
  RowRun run_a(s, sim_a, a.idle_windows);
  RowRun run_b(s, sim_b, b.idle_windows);
  bool live = true;
  while (live) {
    live = run_a.advance();
    live = run_b.advance() || live;
    std::ostringstream ca;
    std::ostringstream cb;
    ASSERT_EQ(sim_a.save_checkpoint(ca), Status::Ok);
    ASSERT_EQ(sim_b.save_checkpoint(cb), Status::Ok);
    const std::string bytes_a = std::move(ca).str();
    const std::string bytes_b = std::move(cb).str();
    if (bytes_a == bytes_b) continue;
    usize first = 0;
    const usize limit = std::min(bytes_a.size(), bytes_b.size());
    while (first < limit && bytes_a[first] == bytes_b[first]) ++first;
    ADD_FAILURE() << "scenario " << s.name << ": " << describe(a) << " vs "
                  << describe(b) << " first diverge at cycle " << sim_a.now()
                  << " (checkpoint byte " << first << " of " << bytes_a.size()
                  << "/" << bytes_b.size() << ")";
    return;
  }
  ADD_FAILURE() << "scenario " << s.name
                << ": end states differ but lockstep checkpoints never "
                   "diverged (host-edge bookkeeping mismatch?)";
}

void expect_equivalent(const Scenario& s, const RunCfg& ref_cfg,
                       const RunCfg& got_cfg, const Outcome& ref,
                       const Outcome& got) {
  SCOPED_TRACE(std::string(s.name) + " @" + describe(got_cfg));
  EXPECT_EQ(ref.digest, got.digest);
  if (ref.checkpoint != got.checkpoint) {
    EXPECT_EQ(ref.checkpoint.size(), got.checkpoint.size());
    diagnose_divergence(s, ref_cfg, got_cfg);
  }
}

/// Bursty pacing with the skip engine on, and the same pacing staged: the
/// pair the fast-forward comparisons below run.
constexpr RunCfg kSkipping{/*fast_forward=*/true, /*idle_windows=*/true};
constexpr RunCfg kStagedIdle{/*fast_forward=*/false, /*idle_windows=*/true};

class Differential : public ::testing::TestWithParam<Scenario> {};

TEST_P(Differential, NonDefaultBackendsFastForwardMatchStagedExactly) {
  // The backend axis: every row re-run under the generic_ddr and pcm_like
  // vault timing backends, staged reference vs fast-forward with idle
  // windows, with the same lockstep first-divergence diagnosis on
  // mismatch.  Backends keep per-vault private state (e.g. pcm_like's
  // write-gap deadline) that a skip must leave exactly as the staged path
  // would.
  for (const TimingBackend backend :
       {TimingBackend::GenericDdr, TimingBackend::PcmLike}) {
    Scenario s = GetParam();
    s.backend = backend;
    SCOPED_TRACE(std::string("backend ") + to_string(backend));
    const Outcome ref = run_scenario(s, kStagedIdle);
    ASSERT_EQ(ref.result.completed, s.requests);
    if (backend == TimingBackend::PcmLike && ref.totals.writes != 0) {
      EXPECT_GT(ref.totals.pcm_write_throttle_stalls, 0u)
          << "pcm_like run never hit the write-bandwidth throttle; the "
             "backend-state coverage is weaker than intended";
    }
    const Outcome got = run_scenario(s, kSkipping);
    expect_equivalent(s, kStagedIdle, kSkipping, ref, got);
    EXPECT_GT(got.cycles_skipped, 0u) << "skip engine never engaged";
  }
}

TEST_P(Differential, FastForwardMatchesStagedExactly) {
  // The fast-forward axis: the same bursty workload — idle windows between
  // request bursts plus the idle tail — run with the skip engine off
  // (reference) and on.  Every observable must match exactly, and the skip
  // run must actually skip, or the proof is vacuous.
  const Scenario& s = GetParam();
  const Outcome ref = run_scenario(s, kStagedIdle);
  ASSERT_EQ(ref.result.completed, s.requests);
  ASSERT_EQ(ref.cycles_skipped, 0u)
      << "reference run must take the staged path every cycle";

  const Outcome got = run_scenario(s, kSkipping);
  expect_equivalent(s, kStagedIdle, kSkipping, ref, got);
  // The idle tail alone is thousands of cycles with no bounded event for
  // long stretches, so a healthy skip engine fast-forwards plenty.
  EXPECT_GT(got.cycles_skipped, 100u)
      << "skip engine never meaningfully engaged; the fast-forward "
         "equivalence above is vacuous";
}

TEST_P(Differential, ObservabilityOnMatchesOffExactly) {
  // The observability axis: profiler + telemetry + flight recorder + a
  // SubCycle CountingSink on the tracer all on versus all off.  Every
  // simulation observable must match exactly on the staged path and on
  // the fast-forward path, where telemetry sampling bounds the skip spans.
  // (cycles_skipped is NOT an observable: sampling legitimately splits
  // skip spans.)
  const Scenario& s = GetParam();
  const RunCfg ref_cfg{};
  const Outcome ref = run_scenario(s, ref_cfg);
  ASSERT_EQ(ref.result.completed, s.requests);

  RunCfg got_cfg{};
  got_cfg.observability = true;
  expect_equivalent(s, ref_cfg, got_cfg, ref, run_scenario(s, got_cfg));

  const Outcome ff_off = run_scenario(s, kSkipping);
  RunCfg ff_got = kSkipping;
  ff_got.observability = true;
  const Outcome ff_on = run_scenario(s, ff_got);
  expect_equivalent(s, kSkipping, ff_got, ff_off, ff_on);
  EXPECT_GT(ff_on.cycles_skipped, 0u)
      << "telemetry sampling must shorten skip spans, not disable skipping";

  // The sampler itself sees the same machine whether or not cycles are
  // skipped: the same row on every sample cycle.
  RunCfg staged_on = kStagedIdle;
  staged_on.observability = true;
  const Outcome staged = run_scenario(s, staged_on);
  EXPECT_EQ(staged.telemetry_rows.size(), ff_on.telemetry_rows.size());
  EXPECT_TRUE(staged.telemetry_rows == ff_on.telemetry_rows)
      << "telemetry rows differ between the staged and skipping runs";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, Differential,
                         ::testing::ValuesIn(kScenarios),
                         ::testing::PrintToStringParamName());

TEST(DifferentialExtras, CheckpointBytesOmitFastForward) {
  // fast_forward is likewise an execution-strategy knob: a checkpoint from
  // a skip-enabled run (mid-skip, even) must byte-match one from a staged
  // run at the same cycle, and restore cleanly across the knob boundary.
  auto run_to = [](bool fast_forward, u32 cycles, std::string* bytes) {
    DeviceConfig dc = test::small_device();
    dc.fast_forward = fast_forward;
    Simulator sim;
    ASSERT_EQ(sim.init_simple(dc), Status::Ok);
    test::send_request(sim, 0, 0, Command::Wr64, 0x1000, 7);
    for (u32 i = 0; i < cycles; ++i) sim.clock();
    if (fast_forward) EXPECT_GT(sim.cycles_skipped(), 0u);
    std::ostringstream os;
    ASSERT_EQ(sim.save_checkpoint(os), Status::Ok);
    *bytes = std::move(os).str();
  };
  std::string staged;
  std::string skipped;
  run_to(false, 500, &staged);
  run_to(true, 500, &skipped);
  EXPECT_EQ(staged, skipped);

  Simulator restored;
  DeviceConfig dc = test::small_device();
  dc.fast_forward = true;
  ASSERT_EQ(restored.init_simple(dc), Status::Ok);
  std::istringstream is(staged);
  ASSERT_EQ(restored.restore_checkpoint(is), Status::Ok);
  EXPECT_EQ(restored.cycles_skipped(), 0u);
  std::ostringstream os2;
  ASSERT_EQ(restored.save_checkpoint(os2), Status::Ok);
  EXPECT_EQ(std::move(os2).str(), staged);
}

// ---- the fast-forward escape hatch ----------------------------------------
//
// Embedders may reach through device() and push queue entries between
// clocks.  An armed skip must notice and hand that clock to the staged
// path, so the entry is served exactly as on a machine that never skips.

/// The address every poke below reads.
constexpr PhysAddr kPokeAddr = 0x2340;

/// A decoded, ready-to-queue request entry, as send() would build it.
RequestEntry direct_entry(const Simulator& sim, Command cmd, PhysAddr addr,
                          Tag tag) {
  PacketBuffer pkt;
  const std::vector<u64> payload(request_data_bytes(cmd) / 8, 0);
  EXPECT_EQ(build_memrequest(0, addr, tag, cmd, 0, payload, pkt), Status::Ok);
  RequestEntry e;
  e.pkt = pkt;
  EXPECT_EQ(decode_request(pkt, e.req), Status::Ok);
  e.ready_cycle = sim.now() + 1;
  e.life.inject = sim.now();
  return e;
}

/// What one run of a poked machine leaves behind.
struct Poked {
  DeviceStats stats;
  std::string bytes;
  usize responses{0};
  u64 skipped_before{0};  ///< cycles_skipped before the clock after the poke
  u64 skipped_after{0};   ///< ... and after it
};

/// Idle long enough to arm a skip, apply `poke` between two clocks, then
/// run on and drain.
Poked run_poked(bool fast_forward,
                const std::function<void(Simulator&)>& poke) {
  DeviceConfig dc = test::small_device();
  dc.fast_forward = fast_forward;
  Simulator sim;
  EXPECT_EQ(sim.init_simple(dc), Status::Ok);
  EXPECT_EQ(test::send_request(sim, 0, 0, Command::Wr64, 0x1000, 7),
            Status::Ok);
  EXPECT_EQ(test::drain_all(sim).size(), 1u);
  for (int i = 0; i < 64; ++i) sim.clock();
  Poked out;
  poke(sim);
  out.skipped_before = sim.cycles_skipped();
  sim.clock();
  out.skipped_after = sim.cycles_skipped();
  out.responses = test::drain_all(sim).size();
  for (int i = 0; i < 64; ++i) sim.clock();
  out.stats = sim.stats(0);
  std::ostringstream os;
  EXPECT_EQ(sim.save_checkpoint(os), Status::Ok);
  out.bytes = std::move(os).str();
  return out;
}

TEST(DifferentialExtras, DirectPushEndsAnArmedSkip) {
  const std::vector<std::pair<const char*, std::function<void(Simulator&)>>>
      pokes = {
          {"vault queue",
           [](Simulator& sim) {
             Device& dev = sim.device(0);
             RequestEntry e = direct_entry(sim, Command::Rd64, kPokeAddr, 9);
             e.life.vault_arrive = sim.now();
             const AddressMap& map = dev.address_map();
             ASSERT_TRUE(dev.vaults[map.vault_of(kPokeAddr)].rqst.push(
                 std::move(e), map.bank_of(kPokeAddr)));
           }},
          {"link request queue",
           [](Simulator& sim) {
             ASSERT_TRUE(sim.device(0).links[0].rqst.push(
                 direct_entry(sim, Command::Rd64, kPokeAddr, 9)));
           }},
      };
  for (const auto& [where, poke] : pokes) {
    SCOPED_TRACE(where);
    const Poked staged = run_poked(false, poke);
    const Poked skipping = run_poked(true, poke);
    EXPECT_EQ(staged.responses, 1u);
    EXPECT_EQ(skipping.responses, 1u);
    EXPECT_EQ(staged.stats, skipping.stats);
    EXPECT_EQ(staged.bytes, skipping.bytes);
    // The skip was live before the push, and the next clock ran staged.
    EXPECT_GT(skipping.skipped_before, 0u);
    EXPECT_EQ(skipping.skipped_after, skipping.skipped_before);
  }
}

TEST(DifferentialExtras, PushThenRemoveBetweenClocksChangesNothing) {
  const auto poke = [](Simulator& sim) {
    Device& dev = sim.device(0);
    const AddressMap& map = dev.address_map();
    BoundedQueue<RequestEntry>& q = dev.vaults[map.vault_of(kPokeAddr)].rqst;
    ASSERT_TRUE(q.push(direct_entry(sim, Command::Rd64, kPokeAddr, 9),
                       map.bank_of(kPokeAddr)));
    (void)q.remove(0);
  };
  const Poked staged = run_poked(false, poke);
  const Poked skipping = run_poked(true, poke);
  EXPECT_EQ(skipping.responses, 0u);
  EXPECT_EQ(staged.stats, skipping.stats);
  EXPECT_EQ(staged.bytes, skipping.bytes);
  EXPECT_GT(skipping.skipped_before, 0u);
}

TEST(DifferentialExtras, RestoreArmsAsSoonAsTheSavedMachineWould) {
  // A restored register file reports a pending self-clear exactly when the
  // snapshot holds one, so the restored machine skips the same cycles as
  // the machine that was saved.
  for (const bool rws_pending : {false, true}) {
    SCOPED_TRACE(rws_pending ? "RWS self-clear pending" : "none pending");
    DeviceConfig dc = test::small_device();
    Simulator saved;
    ASSERT_EQ(saved.init_simple(dc), Status::Ok);
    ASSERT_EQ(test::send_request(saved, 0, 0, Command::Wr64, 0x1000, 7),
              Status::Ok);
    ASSERT_EQ(test::drain_all(saved).size(), 1u);
    for (int i = 0; i < 32; ++i) saved.clock();
    if (rws_pending) {
      ASSERT_EQ(saved.jtag_reg_write(0, phys_from_reg(Reg::Edr0), 1),
                Status::Ok);
    }
    std::stringstream snap;
    ASSERT_EQ(saved.save_checkpoint(snap), Status::Ok);
    Simulator restored;
    ASSERT_EQ(restored.init_simple(dc), Status::Ok);
    ASSERT_EQ(restored.restore_checkpoint(snap), Status::Ok);
    ASSERT_EQ(restored.cycles_skipped(), 0u);

    const u64 before = saved.cycles_skipped();
    for (int i = 0; i < 100; ++i) {
      saved.clock();
      restored.clock();
    }
    EXPECT_EQ(restored.cycles_skipped(), saved.cycles_skipped() - before);
    EXPECT_EQ(restored.cycles_skipped(), rws_pending ? 99u : 100u);
  }
}

// ---- the watchdog under a skip ----------------------------------------------
//
// A fast cycle calls check_watchdog only on the cycles it planned at arm
// time and otherwise just counts the stalled cycle.  The stall count is in
// the checkpoint's WDOG section, so equal bytes on every cycle prove the
// count exact.

/// Four reads, one per link, whose responses the host never receives: the
/// machine stays stalled with nothing left to do, so skips count stalls.
/// Refresh slots every 64 cycles (16 vaults over 1024) end each skip.
DeviceConfig parked_device(u32 watchdog_cycles, bool fast_forward) {
  DeviceConfig dc = test::small_device();
  dc.refresh_interval_cycles = 1024;
  dc.refresh_busy_cycles = 4;
  dc.watchdog_cycles = watchdog_cycles;
  dc.fast_forward = fast_forward;
  return dc;
}

void park_four_reads(Simulator& sim) {
  for (u32 link = 0; link < 4; ++link) {
    EXPECT_EQ(test::send_request(sim, 0, link, Command::Rd16,
                                 PhysAddr{0x1000} * (link + 1),
                                 static_cast<Tag>(link + 1)),
              Status::Ok);
  }
}

std::string checkpoint_bytes(const Simulator& sim) {
  std::ostringstream os;
  EXPECT_EQ(sim.save_checkpoint(os), Status::Ok);
  return std::move(os).str();
}

TEST(DifferentialExtras, WatchdogStallCountMatchesStagedEveryCycle) {
  constexpr Cycle kSlot = 64;
  constexpr u32 kNever = 1u << 20;
  // The stall onset (the WATCHDOG_ARM record's cycle) fixes the trip: the
  // watchdog fires in the clock stamped onset + threshold - 1.
  Cycle onset = 0;
  {
    DeviceConfig dc = parked_device(kNever, false);
    dc.flight_recorder_depth = 16;
    Simulator sim;
    ASSERT_EQ(sim.init_simple(dc), Status::Ok);
    park_four_reads(sim);
    for (Cycle i = 0; i < kSlot; ++i) sim.clock();
    for (const TraceRecord& r : sim.flight_recorder()->snapshot(0)) {
      if (r.event == TraceEvent::WatchdogArm) onset = r.cycle;
    }
    ASSERT_GT(onset, 0u);
    ASSERT_LT(onset, kSlot);
  }
  // The clock at cycle 4 * 64 is a refresh slot, so it runs staged; the
  // one at 4 * 64 + 32 falls inside a skip.
  const u32 on_stop = static_cast<u32>(4 * kSlot + 2 - onset);
  struct Case {
    const char* name;
    u32 threshold;
    bool trips;
  };
  for (const Case& c : {Case{"trips mid-skip", on_stop + 32, true},
                        Case{"trips on a refresh stop cycle", on_stop, true},
                        Case{"never trips", kNever, false}}) {
    SCOPED_TRACE(c.name);
    Simulator staged;
    Simulator skipping;
    ASSERT_EQ(staged.init_simple(parked_device(c.threshold, false)),
              Status::Ok);
    ASSERT_EQ(skipping.init_simple(parked_device(c.threshold, true)),
              Status::Ok);
    park_four_reads(staged);
    park_four_reads(skipping);
    bool trip_skipped = false;
    for (Cycle i = 0; i < 8 * kSlot && !staged.watchdog_fired(); ++i) {
      const u64 skipped = skipping.cycles_skipped();
      staged.clock();
      skipping.clock();
      ASSERT_EQ(skipping.watchdog_fired(), staged.watchdog_fired())
          << "cycle " << staged.now();
      ASSERT_EQ(checkpoint_bytes(skipping), checkpoint_bytes(staged))
          << "cycle " << staged.now();
      trip_skipped = skipping.cycles_skipped() > skipped;
    }
    EXPECT_EQ(staged.watchdog_fired(), c.trips);
    EXPECT_GT(skipping.cycles_skipped(), 0u);
    if (c.trips) {
      EXPECT_EQ(staged.now(), onset + c.threshold - 1);
      // The tripping clock was a fast cycle exactly when it was not a
      // refresh slot.
      EXPECT_EQ(trip_skipped, (staged.now() - 1) % kSlot != 0);
    }
  }
}

TEST(DifferentialExtras, CheckpointBytesOmitObservability) {
  // The observability knobs are execution-strategy state, never simulated
  // state: a checkpoint from an instrumented run must byte-match one from
  // a bare run at the same cycle, and restore cleanly across the knob
  // boundary without disturbing the restoring simulator's own attachments.
  auto run_to = [](bool observability, u32 cycles, std::string* bytes) {
    DeviceConfig dc = test::small_device();
    dc.fast_forward = false;
    if (observability) {
      dc.self_profile = true;
      dc.telemetry_interval_cycles = 3;
      dc.flight_recorder_depth = 16;
    }
    Simulator sim;
    ASSERT_EQ(sim.init_simple(dc), Status::Ok);
    test::send_request(sim, 0, 0, Command::Wr64, 0x1000, 7);
    for (u32 i = 0; i < cycles; ++i) sim.clock();
    std::ostringstream os;
    ASSERT_EQ(sim.save_checkpoint(os), Status::Ok);
    *bytes = std::move(os).str();
  };
  std::string bare;
  std::string instrumented;
  run_to(false, 300, &bare);
  run_to(true, 300, &instrumented);
  EXPECT_EQ(bare, instrumented);

  Simulator restored;
  DeviceConfig dc = test::small_device();
  dc.self_profile = true;
  dc.telemetry_interval_cycles = 3;
  dc.flight_recorder_depth = 16;
  ASSERT_EQ(restored.init_simple(dc), Status::Ok);
  std::istringstream is(bare);
  ASSERT_EQ(restored.restore_checkpoint(is), Status::Ok);
  // The restoring simulator keeps its own observability attachments...
  EXPECT_NE(restored.profiler(), nullptr);
  EXPECT_NE(restored.telemetry(), nullptr);
  EXPECT_NE(restored.flight_recorder(), nullptr);
  // ...and re-saving reproduces the identical bytes.
  std::ostringstream os2;
  ASSERT_EQ(restored.save_checkpoint(os2), Status::Ok);
  EXPECT_EQ(std::move(os2).str(), bare);
}

}  // namespace
}  // namespace hmcsim::test
