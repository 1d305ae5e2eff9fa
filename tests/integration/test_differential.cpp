// Differential proof that the idle-cycle fast-forward engine is equivalent
// to the staged path, that the observability layer changes nothing it
// observes, and that a run repeats itself exactly.
//
// The fast path only arms once every per-cycle idle mutation has reached
// its fixed point, and disarms before any cycle with a bounded event
// (scrub, refresh, hook), so skipping must be unobservable; the profiler,
// telemetry, tracer and flight recorder are pure observation.  This harness
// *proves* both promises over a matrix of seeded workloads: each scenario
// runs staged (reference) and with fast-forward on, with idle windows
// injected between request bursts so the skip engine genuinely engages, and
// with observability off and on.  Every observable output must match
// exactly —
//
//   * final per-device DeviceStats (field-wise),
//   * the complete checkpoint byte stream (queues, banks, RNGs, memory),
//   * the packet-lifecycle latency histograms (count/sum/min/max/buckets
//     per class and segment),
//   * driver-observed completions, errors, and finish cycle.
//
// On a checkpoint mismatch the harness re-runs the two configurations in
// lockstep, checkpointing every cycle, and reports the first cycle at
// which the machines diverge plus the first differing byte offset — the
// exact foothold needed to debug a determinism regression.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tests/core/helpers.hpp"
#include "topo/topology.hpp"
#include "trace/lifecycle.hpp"
#include "workload/driver.hpp"
#include "workload/trace_file.hpp"

namespace hmcsim {
namespace {

enum class Kind : u8 { Random, Stream, TraceFile };

/// Link-layer reliability storm flavors (link_protocol on, see
/// docs/LINK_LAYER.md).  Each flavor keeps the spec retry machine — retry
/// buffers, token credits, IRTRY error-abort — continuously busy in a
/// different way, and all of it must stay bit-identical across execution
/// strategies.
enum class LinkStorm : u8 {
  None,
  Uniform,     ///< independent per-arrival CRC/SEQ corruption
  Burst,       ///< errors cluster: one roll opens a multi-packet burst
  Retraining,  ///< periodic stuck-link windows backpressure every link
};

/// gtest prints a parameter that has no PrintTo as its raw bytes, and that
/// dump is part of every ctest name.  Fixed fields lead so the start of the
/// dump is the same on every build; a leading `name` pointer would print the
/// string's load address, which address-space randomization moves per run.
struct Scenario {
  u32 links;    ///< 4 or 8
  u32 devices;  ///< 1 = single cube, >1 = chain (exercises peer forwards)
  Kind kind;
  bool ras;     ///< DRAM faults + scrubber + vault degradation + link errors
  u64 requests;
  const char* name;
  LinkStorm storm{LinkStorm::None};
  /// Vault timing backend (simulation-visible; must match between any two
  /// compared runs).  The base scenarios all use the default hmc_dram;
  /// NonDefaultBackends* re-runs them under the other backends.
  TimingBackend backend{TimingBackend::HmcDram};
};

// gtest prints a parameter without a PrintTo as raw bytes, and ctest puts
// that dump, `name` pointer included, into the test name.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

// Keep runtimes modest: each scenario runs a few times (plus 2x more on
// failure).
constexpr Scenario kScenarios[] = {
    // links, devices, kind, ras, requests, name [, storm]
    {4, 1, Kind::Random, false, 3000, "random_4link"},
    {8, 1, Kind::Random, true, 3000, "random_8link_ras"},
    {4, 1, Kind::Stream, true, 2500, "stream_4link_ras"},
    {8, 1, Kind::TraceFile, false, 2500, "trace_8link"},
    {8, 3, Kind::Random, true, 1500, "random_chain3_ras"},
    {4, 1, Kind::Random, false, 2000, "linkstorm_uniform_4link",
     LinkStorm::Uniform},
    {8, 1, Kind::Random, false, 2000, "linkstorm_burst_8link",
     LinkStorm::Burst},
    {8, 3, Kind::Random, true, 1200, "linkstorm_retrain_chain3",
     LinkStorm::Retraining},
};

DeviceConfig scenario_device(const Scenario& s) {
  DeviceConfig dc = test::small_device();
  dc.num_links = s.links;
  if (s.ras) {
    // Rates are orders of magnitude above realistic so a few-thousand
    // request run reliably exercises every RAS path: ECC corrections,
    // uncorrectable responses, vault failure + drain, link retries.
    dc.dram_sbe_rate_ppm = 20000;
    dc.dram_dbe_rate_ppm = 4000;
    dc.scrub_interval_cycles = 128;
    dc.vault_fail_threshold = 2;
    dc.link_protocol = true;
    dc.link_error_rate_ppm = 2000;
    dc.link_retry_limit = 3;
  }
  if (s.storm != LinkStorm::None) {
    dc.link_protocol = true;
    dc.link_retry_limit = 8;
    dc.link_retry_latency = 4;
    switch (s.storm) {
      case LinkStorm::Uniform:
        dc.link_error_rate_ppm = 30000;
        break;
      case LinkStorm::Burst:
        dc.link_error_rate_ppm = 20000;
        dc.link_error_burst_len = 4;
        break;
      case LinkStorm::Retraining:
        dc.link_error_rate_ppm = 10000;
        dc.link_stuck_interval_cycles = 512;
        dc.link_stuck_window_cycles = 32;
        break;
      case LinkStorm::None:
        break;
    }
  }
  switch (s.backend) {
    case TimingBackend::HmcDram:
      break;
    case TimingBackend::GenericDdr:
      // Parameters scaled to the small-device busy window, chosen so the
      // row-cycle floor (tRAS) and precharge paths all fire.
      dc.timing_backend = TimingBackend::GenericDdr;
      dc.ddr_tcl = 3;
      dc.ddr_trcd = 2;
      dc.ddr_trp = 2;
      dc.ddr_tras = 6;
      break;
    case TimingBackend::PcmLike:
      // Asymmetric enough that write queues back up and the vault-wide
      // write gap gates issues (pcm_write_throttle_stalls > 0).
      dc.timing_backend = TimingBackend::PcmLike;
      dc.pcm_read_cycles = 4;
      dc.pcm_write_cycles = 12;
      dc.pcm_write_gap_cycles = 6;
      break;
  }
  return dc;
}

std::unique_ptr<Generator> make_generator(const Scenario& s, u64 capacity) {
  GeneratorConfig gc;
  gc.capacity_bytes = capacity;
  gc.seed = 1234;
  switch (s.kind) {
    case Kind::Random:
      return std::make_unique<RandomAccessGenerator>(gc);
    case Kind::Stream:
      return std::make_unique<StreamGenerator>(gc);
    case Kind::TraceFile: {
      SplitMix64 rng(0xd1ffe7e57u);
      const u64 blocks = capacity / 128;
      std::vector<RequestDesc> reqs;
      reqs.reserve(256);
      for (int i = 0; i < 256; ++i) {
        RequestDesc d;
        const PhysAddr addr = 128 * rng.next_below(blocks);
        const u64 pick = rng.next_below(8);
        if (pick < 4) {
          static constexpr Command kReads[] = {Command::Rd16, Command::Rd32,
                                               Command::Rd64, Command::Rd128};
          d.cmd = kReads[pick % 4];
        } else if (pick < 7) {
          static constexpr Command kWrites[] = {Command::Wr16, Command::Wr64,
                                                Command::Wr128};
          d.cmd = kWrites[pick % 3];
        } else {
          d.cmd = Command::TwoAdd8;
        }
        d.addr = addr;
        reqs.push_back(d);
      }
      return std::make_unique<TraceFileGenerator>(std::move(reqs));
    }
  }
  return nullptr;
}

/// Everything one run can observe, captured for exact comparison.
struct Outcome {
  Cycle cycles{0};
  u64 sent{0};
  u64 completed{0};
  u64 errors{0};
  bool watchdog{false};
  u64 cycles_skipped{0};
  std::vector<DeviceStats> stats;
  std::string checkpoint;
  u64 life_completed{0};
  u64 life_conflicted{0};
  LatencyStats life[kOpClassCount][kLifecycleSegmentCount];
  /// The telemetry pass's rows; empty with observability off.
  std::vector<TelemetryRow> telemetry_rows;
};

/// One run's execution strategy (never simulation-visible).
struct RunCfg {
  bool fast_forward{false};
  /// Interleave idle windows between request bursts and append an idle
  /// tail, so fast-forward runs genuinely enter and leave the skip path
  /// mid-traffic.  Pure execution pacing: the clock advances identically
  /// whether or not the skip engine is on.
  bool idle_windows{false};
  /// Turn the whole observability layer on (profiler + telemetry + flight
  /// recorder + a CountingSink on the tracer at TraceLevel::SubCycle).  All
  /// of it is pure observation, so every simulation observable must stay
  /// bit-identical to an observability-off run.
  bool observability{false};
};

Status build_sim(const Scenario& s, const RunCfg& cfg, Simulator& sim,
                 std::string* diag) {
  DeviceConfig dc = scenario_device(s);
  dc.fast_forward = cfg.fast_forward;
  if (cfg.observability) {
    dc.self_profile = true;
    // An odd interval stresses the fast-forward stop-bound arithmetic.
    dc.telemetry_interval_cycles = 7;
    dc.flight_recorder_depth = 64;
  }
  if (s.devices == 1) return sim.init_simple(dc, diag);
  SimConfig sc;
  sc.num_devices = s.devices;
  sc.device = dc;
  Topology topo =
      make_chain(s.devices, s.links, /*host_links=*/2, /*trunk_links=*/2, diag);
  if (topo.num_devices() == 0) return Status::InvalidConfig;
  return sim.init(sc, std::move(topo), diag);
}

constexpr u64 kIdleWindowEverySteps = 192;
constexpr u32 kIdleWindowCycles = 300;
constexpr u32 kIdleTailCycles = 4000;

Outcome run_scenario(const Scenario& s, const RunCfg& cfg) {
  Outcome out;
  Simulator sim;
  std::string diag;
  EXPECT_EQ(build_sim(s, cfg, sim, &diag), Status::Ok) << diag;
  auto sink = std::make_shared<LifecycleSink>();
  sim.add_lifecycle_observer(sink);
  auto counts = std::make_shared<CountingSink>();
  if (cfg.observability) {
    sim.tracer().set_level(TraceLevel::SubCycle);
    sim.tracer().add_sink(counts);
  }

  auto gen = make_generator(s, sim.config().device.derived_capacity());
  DriverConfig dcfg;
  dcfg.total_requests = s.requests;
  dcfg.max_cycles = 400000;
  if (s.devices > 1) dcfg.targets = TargetPolicy::RoundRobinCubes;
  HostDriver driver(sim, *gen, dcfg);
  DriverResult r;
  if (cfg.idle_windows) {
    // Bursty pacing: periodically stop injecting/draining and let the
    // device run dry, then resume.  Extra clocks shift absolute cycle
    // numbers, but identically so for every execution strategy.
    u64 steps = 0;
    bool live = true;
    while (live) {
      live = driver.step(r);
      if (++steps % kIdleWindowEverySteps == 0) {
        for (u32 i = 0; i < kIdleWindowCycles; ++i) sim.clock();
      }
    }
    for (u32 i = 0; i < kIdleTailCycles; ++i) sim.clock();
  } else {
    r = driver.run();
  }

  if (cfg.observability) {
    // Non-vacuousness: the observability layer must actually be observing,
    // or the equivalence below proves nothing.
    sim.flush_observability();
    EXPECT_NE(sim.profiler(), nullptr);
    EXPECT_GT(sim.profiler()->staged_cycles(), 0u);
    EXPECT_FALSE(sim.telemetry()->rows().empty());
    out.telemetry_rows = sim.telemetry()->rows();
    EXPECT_GT(counts->count(TraceEvent::PacketSend), 0u);
    EXPECT_GT(sim.flight_recorder()->recorded(0), 0u);
  }

  out.cycles = r.cycles;
  out.cycles_skipped = sim.cycles_skipped();
  out.sent = r.sent;
  out.completed = r.completed;
  out.errors = r.errors;
  out.watchdog = r.watchdog_fired;
  for (u32 d = 0; d < sim.num_devices(); ++d) out.stats.push_back(sim.stats(d));
  std::ostringstream ckpt;
  EXPECT_EQ(sim.save_checkpoint(ckpt), Status::Ok);
  out.checkpoint = std::move(ckpt).str();
  out.life_completed = sink->completed();
  out.life_conflicted = sink->conflicted();
  for (usize c = 0; c < kOpClassCount; ++c) {
    for (usize seg = 0; seg < kLifecycleSegmentCount; ++seg) {
      out.life[c][seg] = sink->stats(static_cast<OpClass>(c),
                                     static_cast<LifecycleSegment>(seg));
    }
  }
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
  ASSERT_EQ(build_sim(s, a, sim_a, nullptr), Status::Ok);
  ASSERT_EQ(build_sim(s, b, sim_b, nullptr), Status::Ok);
  auto gen_a = make_generator(s, sim_a.config().device.derived_capacity());
  auto gen_b = make_generator(s, sim_b.config().device.derived_capacity());
  DriverConfig dcfg;
  dcfg.total_requests = s.requests;
  dcfg.max_cycles = 400000;
  if (s.devices > 1) dcfg.targets = TargetPolicy::RoundRobinCubes;
  HostDriver driver_a(sim_a, *gen_a, dcfg);
  HostDriver driver_b(sim_b, *gen_b, dcfg);
  const bool idle_windows = a.idle_windows || b.idle_windows;
  DriverResult ra;
  DriverResult rb;
  bool live_a = true;
  bool live_b = true;
  u64 steps = 0;
  u32 idle_left = 0;
  while (live_a || live_b || idle_left > 0) {
    if (idle_left > 0) {
      --idle_left;
      sim_a.clock();
      sim_b.clock();
    } else {
      if (live_a) live_a = driver_a.step(ra);
      if (live_b) live_b = driver_b.step(rb);
      if (idle_windows && ++steps % kIdleWindowEverySteps == 0) {
        idle_left = kIdleWindowCycles;
      }
      if (idle_windows && !live_a && !live_b) idle_left = kIdleTailCycles;
    }
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
  EXPECT_EQ(ref.cycles, got.cycles);
  EXPECT_EQ(ref.sent, got.sent);
  EXPECT_EQ(ref.completed, got.completed);
  EXPECT_EQ(ref.errors, got.errors);
  EXPECT_EQ(ref.watchdog, got.watchdog);
  ASSERT_EQ(ref.stats.size(), got.stats.size());
  for (usize d = 0; d < ref.stats.size(); ++d) {
    EXPECT_EQ(ref.stats[d], got.stats[d]) << "device " << d << " stats";
  }
  EXPECT_EQ(ref.life_completed, got.life_completed);
  EXPECT_EQ(ref.life_conflicted, got.life_conflicted);
  for (usize c = 0; c < kOpClassCount; ++c) {
    for (usize seg = 0; seg < kLifecycleSegmentCount; ++seg) {
      EXPECT_EQ(ref.life[c][seg], got.life[c][seg])
          << "lifecycle class " << c << " segment " << seg;
    }
  }
  if (ref.checkpoint != got.checkpoint) {
    EXPECT_EQ(ref.checkpoint.size(), got.checkpoint.size());
    diagnose_divergence(s, ref_cfg, got_cfg);
  }
}

/// Bursty pacing with the skip engine on, and the same pacing staged: the
/// pair the fast-forward comparisons below run.
constexpr RunCfg kSkipping{/*fast_forward=*/true, /*idle_windows=*/true};
constexpr RunCfg kStagedIdle{/*fast_forward=*/false, /*idle_windows=*/true};

/// Non-vacuity: a reference run must be a real run that exercises its
/// scenario's fault axis, or the comparisons against it prove nothing.
void expect_exercised(const Scenario& s, const Outcome& ref) {
  ASSERT_EQ(ref.sent, s.requests);
  ASSERT_EQ(ref.completed, s.requests);
  ASSERT_FALSE(ref.checkpoint.empty());
  if (s.ras) {
    u64 ecc_events = 0;
    for (const DeviceStats& st : ref.stats) {
      ecc_events += st.dram_sbes + st.dram_dbes + st.link_errors;
    }
    EXPECT_GT(ecc_events, 0u) << "RAS scenario produced no faults; the "
                                 "differential coverage is weaker than "
                                 "intended";
  }
  if (s.storm != LinkStorm::None) {
    u64 protocol_events = 0;
    u64 retrain = 0;
    for (const DeviceStats& st : ref.stats) {
      protocol_events += st.link_crc_errors + st.link_seq_errors;
      retrain += st.link_retrain_cycles;
    }
    EXPECT_GT(protocol_events, 0u)
        << "link storm produced no protocol recoveries; the differential "
           "coverage is weaker than intended";
    if (s.storm == LinkStorm::Retraining) {
      EXPECT_GT(retrain, 0u) << "retraining storm never held a window open";
    }
  }
}

class Differential : public ::testing::TestWithParam<Scenario> {};

TEST_P(Differential, NonDefaultBackendsFastForwardMatchStagedExactly) {
  // The backend axis: every scenario re-run under the generic_ddr and
  // pcm_like vault timing backends, staged reference vs fast-forward with
  // idle windows, with the same lockstep first-divergence diagnosis on
  // mismatch.  (The default hmc_dram backend is what every other test in
  // this file runs under.)  Backends keep per-vault private state (e.g.
  // pcm_like's write-gap deadline) that a skip must leave exactly as the
  // staged path would.
  for (const TimingBackend backend :
       {TimingBackend::GenericDdr, TimingBackend::PcmLike}) {
    Scenario s = GetParam();
    s.backend = backend;
    SCOPED_TRACE(std::string("backend ") + to_string(backend));
    const Outcome ref = run_scenario(s, kStagedIdle);
    ASSERT_EQ(ref.sent, s.requests);
    ASSERT_EQ(ref.completed, s.requests);
    ASSERT_FALSE(ref.checkpoint.empty());
    if (backend == TimingBackend::PcmLike) {
      u64 throttle = 0;
      for (const DeviceStats& st : ref.stats) {
        throttle += st.pcm_write_throttle_stalls;
      }
      EXPECT_GT(throttle, 0u)
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
  // request bursts plus a long idle tail — run with the skip engine off
  // (reference) and on.  Every observable (stats, checkpoint bytes, latency
  // histograms, finish cycle) must match exactly, and the skip run must
  // actually skip, or the proof is vacuous.
  const Scenario& s = GetParam();
  const Outcome ref = run_scenario(s, kStagedIdle);
  ASSERT_EQ(ref.sent, s.requests);
  ASSERT_EQ(ref.completed, s.requests);
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
  // SubCycle CountingSink on the tracer all on versus all off.  Every simulation observable — stats, checkpoint
  // bytes, lifecycle histograms, finish cycle — must match exactly on the
  // staged path and on the fast-forward path, where telemetry sampling
  // bounds the skip spans.  (cycles_skipped is NOT an observable: sampling
  // legitimately splits skip spans.)
  const Scenario& s = GetParam();
  const RunCfg ref_cfg{};
  const Outcome ref = run_scenario(s, ref_cfg);
  ASSERT_EQ(ref.completed, s.requests);

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

TEST_P(Differential, SerialRerunIsBitIdentical) {
  // Harness self-check: two identical runs must agree, otherwise the
  // scenario itself is nondeterministic and every comparison in this file
  // proves nothing.  The run must also exercise the scenario's axis, so a
  // scenario that silently stops faulting fails here.
  const Scenario& s = GetParam();
  const RunCfg cfg{};
  const Outcome a = run_scenario(s, cfg);
  expect_exercised(s, a);
  expect_equivalent(s, cfg, cfg, a, run_scenario(s, cfg));
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, Differential,
                         ::testing::ValuesIn(kScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

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
}  // namespace hmcsim
