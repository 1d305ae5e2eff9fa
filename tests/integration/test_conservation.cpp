// Stats-conservation metamorphic tests.
//
// The differential harness (test_differential.cpp) proves runs are
// bit-identical across execution strategies; this file proves the numbers
// themselves are *right*.  Every run must satisfy closed-form conservation
// laws derived from what the host injected:
//
//   * every accepted request is counted exactly once in `sends`, and —
//     because the workload is all non-posted commands — drained exactly
//     once, so `recvs` equals the injected total;
//   * every request terminates as either a retirement (reads + writes +
//     atomics + custom_ops) or an Error response the driver observed, so
//     retired() == injected − driver errors, with RAS storms on or off;
//   * scheduled maintenance is never lost or duplicated: per-device
//     scrub_steps and refreshes match the analytic count implied by the
//     schedule formulas and the final cycle number;
//   * cycles_skipped is bounded by the clock, zero exactly when the
//     fast-forward engine is off, and positive when it is on and the
//     workload has idle windows to skip.
//
// The metamorphic axis: the same workload re-run with fast-forward off and
// on must produce identical device stats and finish cycle while
// cycles_skipped (pure execution bookkeeping) is free to vary.
//
// Every law above is backend-independent, so the whole matrix also runs
// under each vault timing backend (hmc_dram / generic_ddr / pcm_like):
// backends reshape *when* banks free up, never how many requests exist.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/link_layer.hpp"
#include "tests/integration/scenario.hpp"

namespace hmcsim {
namespace {

constexpr u64 kRequests = 2000;
/// test::mixed_trace() is all non-posted, so the injected totals are fully
/// observable at the host edge.
constexpr u64 kTraceSeed = 0xc0de5eed0ddba11ull;
constexpr u64 kIdleWindowEverySteps = 160;
constexpr u32 kIdleWindowCycles = 256;
constexpr u32 kIdleTailCycles = 3000;

DeviceConfig conservation_device(bool ras,
                                 TimingBackend backend = TimingBackend::HmcDram) {
  DeviceConfig dc = test::small_device();
  // A short refresh schedule so the analytic refresh count is exercised
  // thousands of times, with a narrow busy window so traffic still flows.
  dc.refresh_interval_cycles = 512;
  dc.refresh_busy_cycles = 8;
  dc = test::with_backend(dc, backend);
  if (ras) test::ras_storm(dc);
  return dc;
}

struct InjectedTotals {
  u64 reads{0};
  u64 writes{0};
  u64 atomics{0};
};

/// Composition of the first `kRequests` generator pulls (the trace file
/// generator wraps around its entry vector).
InjectedTotals injected_totals(const std::vector<RequestDesc>& trace) {
  InjectedTotals t;
  for (u64 i = 0; i < kRequests; ++i) {
    switch (trace[i % trace.size()].cmd) {
      case Command::TwoAdd8: ++t.atomics; break;
      case Command::Wr16:
      case Command::Wr64:
      case Command::Wr128: ++t.writes; break;
      default: ++t.reads; break;
    }
  }
  return t;
}

/// Analytic per-device refresh count: the clock call at cycle c refreshes
/// vault v iff (c + offset_v) % interval == 0, offsets staggered across
/// the interval — the same formula process_vault() evaluates.  Vaults in
/// `exclude_mask` (failed, hence no longer clocked) are left out.
u64 expected_refreshes(const DeviceConfig& dc, Cycle now, u64 exclude_mask) {
  if (dc.refresh_interval_cycles == 0) return 0;
  const Cycle interval = dc.refresh_interval_cycles;
  u64 total = 0;
  for (u32 v = 0; v < dc.num_vaults(); ++v) {
    if (exclude_mask >> v & 1) continue;
    const Cycle offset = Cycle{v} * interval / dc.num_vaults();
    // First firing cycle for this vault, then one per interval.
    const Cycle first = (interval - offset % interval) % interval;
    if (first < now) total += 1 + (now - 1 - first) / interval;
  }
  return total;
}

/// Analytic per-device scrub count: the clock call at cycle c scrubs iff
/// c % scrub_interval == 0 (stage6_clock_update's schedule).
u64 expected_scrub_steps(const DeviceConfig& dc, Cycle now) {
  if (dc.scrub_interval_cycles == 0 || now == 0) return 0;
  return 1 + (now - 1) / dc.scrub_interval_cycles;
}

struct RunResult {
  DriverResult driver;
  DeviceStats stats;
  Cycle now{0};
  u64 cycles_skipped{0};
  u64 failed_vaults{0};
};

RunResult run_conservation(bool ras, TimingBackend backend, bool fast_forward,
                           const std::vector<RequestDesc>& trace) {
  RunResult out;
  DeviceConfig dc = conservation_device(ras, backend);
  dc.fast_forward = fast_forward;
  Simulator sim;
  std::string diag;
  EXPECT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;

  TraceFileGenerator gen{std::vector<RequestDesc>(trace)};
  DriverConfig dcfg;
  dcfg.total_requests = kRequests;
  dcfg.max_cycles = 400000;
  HostDriver driver(sim, gen, dcfg);

  // Bursty pacing so fast-forward runs genuinely skip mid-workload, plus
  // an idle tail long enough to cross many refresh/scrub boundaries.
  u64 steps = 0;
  bool live = true;
  while (live) {
    live = driver.step(out.driver);
    if (++steps % kIdleWindowEverySteps == 0) {
      for (u32 i = 0; i < kIdleWindowCycles; ++i) sim.clock();
    }
  }
  for (u32 i = 0; i < kIdleTailCycles; ++i) sim.clock();

  out.stats = sim.total_stats();
  out.now = sim.now();
  out.cycles_skipped = sim.cycles_skipped();
  out.failed_vaults = sim.device(0).ras.failed_vaults;
  EXPECT_FALSE(out.driver.watchdog_fired);
  EXPECT_FALSE(out.driver.hit_cycle_cap);
  return out;
}

void check_conservation(bool ras, TimingBackend backend, bool fast_forward,
                        const std::vector<RequestDesc>& trace,
                        const RunResult& run) {
  SCOPED_TRACE(std::string(ras ? "ras" : "clean") + " " +
               to_string(backend) + " @fast_forward " +
               (fast_forward ? "on" : "off"));
  const DeviceConfig dc = conservation_device(ras, backend);
  const DeviceStats& s = run.stats;

  // Host-edge totals: everything injected was accepted, everything
  // accepted was answered, and nothing was answered twice.
  EXPECT_EQ(run.driver.sent, kRequests);
  EXPECT_EQ(run.driver.retries, 0u);
  EXPECT_EQ(run.driver.abandoned, 0u);
  EXPECT_EQ(run.driver.completed, kRequests);
  EXPECT_EQ(s.sends, kRequests);
  EXPECT_EQ(s.recvs, kRequests);
  EXPECT_EQ(s.flow_packets, 0u);

  // Termination conservation: each request retired at a bank or came back
  // as an Error the driver saw — never both, never neither.
  EXPECT_EQ(s.retired() + run.driver.errors, kRequests);

  const InjectedTotals inj = injected_totals(trace);
  if (ras) {
    // Faults can convert any retirement into an error, but never mint one.
    EXPECT_GT(run.driver.errors, 0u)
        << "RAS storm produced no errors; conservation coverage is weaker "
           "than intended";
    EXPECT_LE(s.reads, inj.reads);
    EXPECT_LE(s.writes, inj.writes);
    EXPECT_LE(s.atomics, inj.atomics);
  } else {
    // Clean runs conserve the exact injected composition.
    EXPECT_EQ(run.driver.errors, 0u);
    EXPECT_EQ(s.reads, inj.reads);
    EXPECT_EQ(s.writes, inj.writes);
    EXPECT_EQ(s.atomics, inj.atomics);
  }
  EXPECT_EQ(s.mode_ops, 0u);
  EXPECT_EQ(s.custom_ops, 0u);

  // The write-bandwidth throttle exists only inside pcm_like; any other
  // backend counting a stall would mean the counter leaks across the
  // backend seam.  Under pcm_like with a nonzero gap, this mixed workload
  // must actually hit it, or the per-backend runs prove nothing extra.
  if (backend == TimingBackend::PcmLike) {
    EXPECT_GT(s.pcm_write_throttle_stalls, 0u);
  } else {
    EXPECT_EQ(s.pcm_write_throttle_stalls, 0u);
  }

  // Scheduled maintenance: skipping cycles must not skip the schedule.
  // A vault stops being clocked — and hence refreshed — once it fails, so
  // under RAS storms the exact count lies between "every vault refreshed
  // all run" and "the finally-failed vaults never refreshed at all".
  EXPECT_LE(s.refreshes, expected_refreshes(dc, run.now, 0));
  EXPECT_GE(s.refreshes,
            expected_refreshes(dc, run.now, run.failed_vaults));
  if (!ras) {
    EXPECT_EQ(run.failed_vaults, 0u);
    EXPECT_EQ(s.refreshes, expected_refreshes(dc, run.now, 0));
  }
  EXPECT_EQ(s.scrub_steps, expected_scrub_steps(dc, run.now));

  // Clock conservation: cycles_skipped + cycles_executed == clock, with
  // skipping happening exactly when the engine is enabled and idle.
  EXPECT_LE(run.cycles_skipped, run.now);
  if (fast_forward) {
    EXPECT_GT(run.cycles_skipped, 0u);
    EXPECT_GT(run.now - run.cycles_skipped, 0u);
  } else {
    EXPECT_EQ(run.cycles_skipped, 0u);
  }
}

class Conservation
    : public ::testing::TestWithParam<std::tuple<bool, TimingBackend>> {};

TEST_P(Conservation, CountsSumToInjectedTotals) {
  const auto [ras, backend] = GetParam();
  const std::vector<RequestDesc> trace =
      test::mixed_trace(conservation_device(ras).derived_capacity(),
                        kTraceSeed);

  std::vector<RunResult> runs;
  for (const bool fast_forward : {false, true}) {
    runs.push_back(run_conservation(ras, backend, fast_forward, trace));
    check_conservation(ras, backend, fast_forward, trace, runs.back());
  }

  // Metamorphic equality: simulation-visible outputs agree across every
  // execution strategy; only the skip bookkeeping may differ.
  for (usize i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i) + " vs reference");
    EXPECT_EQ(runs[i].now, runs[0].now);
    EXPECT_EQ(runs[i].stats, runs[0].stats);
    EXPECT_EQ(runs[i].driver.errors, runs[0].driver.errors);
    EXPECT_EQ(runs[i].driver.cycles, runs[0].driver.cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CleanAndRasPerBackend, Conservation,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(TimingBackend::HmcDram,
                                         TimingBackend::GenericDdr,
                                         TimingBackend::PcmLike)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "ras" : "clean") + "_" +
             to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Link-layer token conservation.
//
// The credit loop obeys a closed-form identity at every instant:
//
//   tokens_debited − tokens_returned == pool − tokens   (FLITs in flight)
//
// with 0 ≤ in-flight ≤ pool, and at quiescence in-flight == 0 exactly:
// every debit was matched by a return, the pool sits at its fixed point,
// and the retry buffer is empty — even after an error storm full of
// replays and IRTRY recoveries.
// ---------------------------------------------------------------------------

void expect_token_identity(const Simulator& sim, bool at_quiescence) {
  const i64 pool = resolved_link_tokens(sim.config().device);
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    const Device& dev = sim.device(d);
    for (u32 l = 0; l < dev.links.size(); ++l) {
      const LinkProtoState& st = dev.links[l].proto;
      SCOPED_TRACE("dev " + std::to_string(d) + " link " + std::to_string(l));
      const i64 in_flight = pool - st.tokens;
      EXPECT_GE(in_flight, 0);
      EXPECT_LE(in_flight, pool);
      EXPECT_EQ(st.tokens_debited - st.tokens_returned,
                static_cast<u64>(in_flight));
      if (at_quiescence) {
        EXPECT_EQ(st.tokens, pool);
        EXPECT_EQ(st.tokens_debited, st.tokens_returned);
        EXPECT_EQ(st.retry_buf_flits, 0u);
        EXPECT_FALSE(st.replay_pending);
      }
    }
  }
}

TEST(TokenConservation, CreditLoopBalancesMidFlightAndAtQuiescence) {
  DeviceConfig dc = conservation_device(true);
  dc.link_protocol = true;
  dc.link_retry_limit = 8;
  dc.link_retry_latency = 4;
  dc.link_error_rate_ppm = 20000;
  Simulator sim;
  std::string diag;
  ASSERT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;

  const std::vector<RequestDesc> trace =
      test::mixed_trace(dc.derived_capacity(), kTraceSeed);
  TraceFileGenerator gen{std::vector<RequestDesc>(trace)};
  DriverConfig dcfg;
  dcfg.total_requests = kRequests;
  dcfg.max_cycles = 400000;
  HostDriver driver(sim, gen, dcfg);

  // The identity is an invariant, not an end-state property: sample it
  // mid-storm while replays and aborts are in flight.
  DriverResult r;
  u64 steps = 0;
  bool live = true;
  while (live) {
    live = driver.step(r);
    if (++steps % 64 == 0) expect_token_identity(sim, false);
  }
  EXPECT_EQ(r.completed, kRequests);

  for (u32 i = 0; i < kIdleTailCycles; ++i) sim.clock();
  ASSERT_TRUE(sim.quiescent());
  expect_token_identity(sim, true);

  // The aggregate statistics agree with the per-link ledgers.
  const DeviceStats s = sim.total_stats();
  EXPECT_EQ(s.link_tokens_debited, s.link_tokens_returned);
  EXPECT_GT(s.link_tokens_debited, 0u);
}

}  // namespace
}  // namespace hmcsim
