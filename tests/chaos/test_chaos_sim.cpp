// Chaos engine on the live simulator (src/chaos/engine.cpp): events land
// at their exact cycle on the staged and the fast-forward path, the live
// invariant checker stays green through a six-axis storm (and across every
// execution strategy, bit-identically), the break_invariant test hook
// freezes the machine with a post-mortem report, and a checkpoint saved
// mid-storm restores and replays byte-identically.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

namespace hmcsim {
namespace {

// Link chaos events need the link retry protocol (ChaosEngine::arm).
using test::proto_device;

ChaosPlan compile(const std::string& text) {
  ChaosPlanParseResult r = parse_chaos_plan_string(text);
  EXPECT_TRUE(r.ok) << r.error;
  return std::move(r.plan);
}

void arm(Simulator& sim, const std::string& text) {
  std::string diag;
  ASSERT_EQ(sim.set_chaos_plan(compile(text), &diag), Status::Ok) << diag;
}

TEST(ChaosSim, EventsApplyAtTheirExactCycle) {
  Simulator sim = test::make_simple_sim(proto_device());
  arm(sim, "at 10 link_error_ppm 7777\n");
  for (int i = 0; i < 10; ++i) sim.clock();
  // Cycle 10 has not executed yet: the event is still pending.
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.config().device.link_error_rate_ppm, 0u);
  EXPECT_EQ(sim.chaos()->events_applied(), 0u);
  sim.clock();  // executes cycle 10; apply_due runs before the stages
  EXPECT_EQ(sim.config().device.link_error_rate_ppm, 7777u);
  EXPECT_EQ(sim.chaos()->events_applied(), 1u);
  EXPECT_EQ(sim.chaos()->cursor(), 1u);
}

TEST(ChaosSim, RestoreReturnsToTheConfiguredBaseline) {
  DeviceConfig dc = proto_device();
  dc.link_error_rate_ppm = 1234;
  Simulator sim = test::make_simple_sim(dc);
  arm(sim,
      "at 5 link_error_ppm 9999\n"
      "at 10 restore link_error_ppm\n");
  for (int i = 0; i < 8; ++i) sim.clock();
  EXPECT_EQ(sim.config().device.link_error_rate_ppm, 9999u);
  for (int i = 0; i < 8; ++i) sim.clock();
  EXPECT_EQ(sim.config().device.link_error_rate_ppm, 1234u);
  EXPECT_EQ(sim.chaos()->events_applied(), 2u);
}

TEST(ChaosSim, ArmValidatesStructuralIndices) {
  Simulator sim = test::make_simple_sim(proto_device());  // 4 links, 16 vaults
  std::string diag;
  EXPECT_EQ(sim.set_chaos_plan(compile("at 10 kill_link 4\n"), &diag),
            Status::InvalidConfig);
  EXPECT_NE(diag.find("out of range"), std::string::npos);
  EXPECT_NE(diag.find("1:"), std::string::npos);  // plan-file line number
  diag.clear();
  EXPECT_EQ(sim.set_chaos_plan(compile("at 10 wedge 16\n"), &diag),
            Status::InvalidConfig);
  EXPECT_NE(diag.find("out of range"), std::string::npos);

  // Without the link protocol there are no link errors and no link state
  // for the structural link events to act on, so each is refused, naming
  // its plan line (a rate or burst would also leave a live config that no
  // checkpoint restore accepts).
  Simulator plain = test::make_simple_sim();
  for (const char* refused :
       {"at 10 link_error_ppm 1\n", "at 10 link_burst 2\n",
        "at 10 link_retrain 0 16\n", "at 10 kill_link 0\n",
        "at 10 revive_link 0\n", "ramp 10 40 3 link_error_ppm 0 900\n"}) {
    SCOPED_TRACE(refused);
    diag.clear();
    EXPECT_EQ(plain.set_chaos_plan(compile(std::string("# line 1\n") +
                                           refused),
                                   &diag),
              Status::InvalidConfig);
    EXPECT_NE(diag.find("2: "), std::string::npos) << diag;
    EXPECT_NE(diag.find("link_protocol"), std::string::npos) << diag;
  }
  // Zero-valued and restore events re-arm the error-free defaults, so
  // they stay legal — and with them `quiet` blocks.
  ASSERT_EQ(plain.set_chaos_plan(compile("at 10 link_error_ppm 0\n"
                                         "at 20 link_burst 1\n"
                                         "at 30 restore link_error_ppm\n"
                                         "at 40 restore link_burst\n"
                                         "quiet 50 60\n"),
                                 &diag),
            Status::Ok)
      << diag;
}

TEST(ChaosSim, WedgedVaultsStallUntilTheStormLifts) {
  // Wedge every vault for a window mid-run: the driver must stall during
  // the wedge and complete once the storm's closing edges release the
  // banks — end-to-end proof the structural events hit the real machine.
  Simulator sim = test::make_simple_sim();
  std::ostringstream plan;
  plan << "storm 20 400\n";
  for (u32 v = 0; v < sim.config().device.num_vaults(); ++v) {
    plan << "  wedge " << v << "\n";
  }
  plan << "end\n";
  arm(sim, plan.str());

  GeneratorConfig gc;
  gc.capacity_bytes = sim.config().device.derived_capacity();
  gc.seed = 99;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 4000;
  dcfg.max_cycles = 100000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 4000u);
  EXPECT_FALSE(r.hit_cycle_cap);
  // The wedge window forces the run past the storm's closing edge.
  EXPECT_GT(r.cycles, 400u);
  EXPECT_EQ(sim.chaos()->events_applied(),
            sim.chaos()->plan().events.size());
}

TEST(ChaosSim, CheckerAloneRunsWithoutAPlan) {
  // chaos_invariants != 0 creates the engine even with no campaign: the
  // checker must observe a healthy machine under real traffic.
  DeviceConfig dc = test::small_device();
  dc.chaos_invariants = 16;
  dc.scrub_interval_cycles = 64;
  Simulator sim = test::make_simple_sim(dc);
  ASSERT_NE(sim.chaos(), nullptr);

  GeneratorConfig gc;
  gc.capacity_bytes = sim.config().device.derived_capacity();
  gc.seed = 7;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 500;
  dcfg.max_cycles = 100000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 500u);
  EXPECT_FALSE(sim.chaos_violated());
  EXPECT_GT(sim.chaos()->invariant_checks(), 0u);
}

TEST(ChaosSim, BreakInvariantFreezesTheMachineWithAReport) {
  DeviceConfig dc = proto_device();
  dc.chaos_invariants = 64;
  Simulator sim = test::make_simple_sim(dc);
  arm(sim, "at 100 break_invariant 5\n");
  for (int i = 0; i < 400 && !sim.chaos_violated(); ++i) sim.clock();
  ASSERT_TRUE(sim.chaos_violated());
  const ChaosViolation& v = sim.chaos()->violation();
  EXPECT_EQ(v.invariant, "link_token_identity");
  EXPECT_GT(v.cycle, 100u);  // first cadence check after the corruption
  EXPECT_EQ(v.cycle % 64, 0u);
  EXPECT_FALSE(v.detail.empty());
  // The report carries the violation plus the watchdog-style state dump.
  EXPECT_NE(sim.chaos_report().find("link_token_identity"),
            std::string::npos);
  EXPECT_NE(sim.chaos_report().find("cycle"), std::string::npos);
  // Frozen exactly like the watchdog: the clock refuses further edges.
  const Cycle frozen = sim.now();
  for (int i = 0; i < 5; ++i) sim.clock();
  EXPECT_EQ(sim.now(), frozen);
}

TEST(ChaosSim, BreakInvariantTripsScrubAccountingWithoutLinkProtocol) {
  DeviceConfig dc = test::small_device();
  dc.scrub_interval_cycles = 32;
  dc.chaos_invariants = 64;
  Simulator sim = test::make_simple_sim(dc);
  arm(sim, "at 100 break_invariant 3\n");
  for (int i = 0; i < 400 && !sim.chaos_violated(); ++i) sim.clock();
  ASSERT_TRUE(sim.chaos_violated());
  EXPECT_EQ(sim.chaos()->violation().invariant, "scrub_accounting");
}

// ---- determinism across execution strategies -------------------------------

/// The six-axis storm scenario: link errors + bursts, a dead-then-revived
/// link, a retrain window, DRAM single/double-bit fault rates, a failed
/// vault, a wedged vault, and a host-timeout squeeze — all under the link
/// protocol with the invariant checker on a prime cadence.
DeviceConfig storm_device() {
  DeviceConfig dc = proto_device();
  dc.link_retry_latency = 4;
  dc.model_data = true;  // DRAM fault injection needs backing data
  dc.scrub_interval_cycles = 128;
  dc.chaos_invariants = 97;
  return dc;
}

const char* storm_plan() {
  return
      "at 50 link_error_ppm 20000\n"
      "at 60 link_burst 4\n"
      "at 80 kill_link 3\n"
      "at 300 revive_link 3\n"
      "at 120 link_retrain 1 64\n"
      "storm 200 900\n"
      "  dram_sbe_ppm 30000\n"
      "  dram_dbe_ppm 5000\n"
      "  vault_fail 2\n"
      "  wedge 5\n"
      "  host_timeout 4000\n"
      "end\n"
      "quiet 1200 1400\n"
      "ramp 1500 1800 3 link_error_ppm 0 10000\n"
      "at 2500 restore link_error_ppm\n";
}

struct StormOutcome {
  DriverResult result;
  std::string checkpoint;
  u64 events_applied{0};
  u64 checks{0};
  u64 skipped{0};
};

StormOutcome run_storm(bool fast_forward, bool idle_tail) {
  StormOutcome out;
  DeviceConfig dc = storm_device();
  dc.fast_forward = fast_forward;
  Simulator sim;
  std::string diag;
  EXPECT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;
  arm(sim, storm_plan());

  GeneratorConfig gc;
  gc.capacity_bytes = sim.config().device.derived_capacity();
  gc.seed = 4242;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 1500;
  dcfg.max_cycles = 200000;
  dcfg.response_timeout_cycles = 20000;
  dcfg.retry_limit = 2;
  HostDriver driver(sim, gen, dcfg);
  if (ChaosEngine* chaos = sim.chaos()) {
    chaos->set_host_timeout_hook(
        [&driver](u64 cycles) { driver.set_response_timeout(cycles); },
        dcfg.response_timeout_cycles);
  }
  DriverResult r;
  // The host probe reads the in-progress result, so drive step by step.
  sim.chaos()->set_host_probe([&driver, &r](std::string* detail) {
    return driver.invariants_ok(r, detail);
  });
  while (driver.step(r)) {
  }
  if (idle_tail) {
    // An idle tail past the last plan event, so fast-forward runs get a
    // genuine skip window that must stop at the chaos event horizon.
    while (sim.now() < 4000) sim.clock();
  }
  out.result = r;
  std::ostringstream os;
  EXPECT_EQ(sim.save_checkpoint(os), Status::Ok);
  out.checkpoint = std::move(os).str();
  out.events_applied = sim.chaos()->events_applied();
  out.checks = sim.chaos()->invariant_checks();
  out.skipped = sim.cycles_skipped();
  EXPECT_FALSE(sim.chaos_violated()) << sim.chaos_report();
  EXPECT_EQ(out.events_applied, sim.chaos()->plan().events.size());
  EXPECT_GT(out.checks, 0u);
  return out;
}

TEST(ChaosSimDifferential, StormIsBitIdenticalAcrossStrategies) {
  const StormOutcome ref = run_storm(false, true);
  EXPECT_EQ(ref.result.completed, 1500u);
  const StormOutcome ff = run_storm(true, true);
  EXPECT_EQ(ff.result.cycles, ref.result.cycles);
  EXPECT_EQ(ff.result.sent, ref.result.sent);
  EXPECT_EQ(ff.result.completed, ref.result.completed);
  EXPECT_EQ(ff.result.errors, ref.result.errors);
  EXPECT_EQ(ff.result.timeouts, ref.result.timeouts);
  EXPECT_EQ(ff.result.retries, ref.result.retries);
  EXPECT_EQ(ff.events_applied, ref.events_applied);
  EXPECT_EQ(ff.checks, ref.checks);
  EXPECT_EQ(ff.checkpoint, ref.checkpoint) << "checkpoint bytes diverged";
  // Non-vacuousness: the fast-forward leg actually skipped cycles.
  EXPECT_GT(ff.skipped, 0u);
  EXPECT_EQ(ref.skipped, 0u);
}

TEST(ChaosSim, FastForwardStopsAtTheEventHorizon) {
  // An idle machine with a far-future event: the skip engine must treat
  // the pending chaos event as a horizon and land it at its exact cycle.
  DeviceConfig dc = proto_device();
  dc.fast_forward = true;
  Simulator sim = test::make_simple_sim(dc);
  arm(sim, "at 500 link_error_ppm 7777\n");
  while (sim.now() < 499) sim.clock();
  EXPECT_EQ(sim.config().device.link_error_rate_ppm, 0u);
  sim.clock();  // cycle 499 executes
  sim.clock();  // cycle 500 executes: the event lands
  EXPECT_EQ(sim.config().device.link_error_rate_ppm, 7777u);
  EXPECT_GT(sim.cycles_skipped(), 0u);  // the idle run-up genuinely skipped
}

// ---- mid-storm checkpointing ----------------------------------------------

TEST(ChaosSim, MidStormCheckpointRestoresAndReplaysBitIdentically) {
  DeviceConfig dc = storm_device();
  Simulator sim;
  std::string diag;
  ASSERT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;
  arm(sim, storm_plan());
  // Run into the storm window (plan events 200..900 partially applied).
  while (sim.now() < 400) sim.clock();
  ASSERT_GT(sim.chaos()->events_applied(), 0u);
  ASSERT_LT(sim.chaos()->cursor(), sim.chaos()->plan().events.size());
  std::ostringstream saved;
  ASSERT_EQ(sim.save_checkpoint(saved), Status::Ok);
  const std::string bytes = std::move(saved).str();

  // The original continues through the storm's closing edges.
  while (sim.now() < 2000) sim.clock();
  std::ostringstream after_a;
  ASSERT_EQ(sim.save_checkpoint(after_a), Status::Ok);

  // A fresh machine restores the mid-storm snapshot and replays.  The
  // chaos_invariants cadence is an observability knob preserved from the
  // pre-restore config (not serialized), so the twin must start from the
  // same device config for the check counters to line up.
  Simulator sim2;
  ASSERT_EQ(sim2.init_simple(storm_device(), &diag), Status::Ok);
  std::istringstream in(bytes);
  ASSERT_EQ(sim2.restore_checkpoint(in), Status::Ok);
  ASSERT_NE(sim2.chaos(), nullptr);
  EXPECT_EQ(sim2.chaos()->cursor(), sim2.chaos()->events_applied());
  EXPECT_EQ(sim2.chaos()->plan_crc(), chaos_plan_crc(compile(storm_plan())));
  // Re-arming the same plan is the resume idiom: CRC-equal, no-op, the
  // restored cursor survives.
  const u64 cursor = sim2.chaos()->cursor();
  std::string rediag;
  ASSERT_EQ(sim2.set_chaos_plan(compile(storm_plan()), &rediag), Status::Ok)
      << rediag;
  EXPECT_EQ(sim2.chaos()->cursor(), cursor);
  // A different plan would desynchronize the checkpointed campaign.
  EXPECT_EQ(sim2.set_chaos_plan(compile("at 9 link_burst 2\n"), &rediag),
            Status::InvalidConfig);
  EXPECT_NE(rediag.find("does not match"), std::string::npos);

  while (sim2.now() < 2000) sim2.clock();
  std::ostringstream after_b;
  ASSERT_EQ(sim2.save_checkpoint(after_b), Status::Ok);
  EXPECT_EQ(after_a.str(), after_b.str())
      << "mid-storm restore diverged from the uninterrupted run";
  EXPECT_FALSE(sim2.chaos_violated());
}

TEST(ChaosSim, ResetRewindsTheCampaign) {
  Simulator sim = test::make_simple_sim(proto_device());
  arm(sim, "at 10 link_error_ppm 7777\n");
  for (int i = 0; i < 20; ++i) sim.clock();
  EXPECT_EQ(sim.chaos()->events_applied(), 1u);
  sim.reset();
  EXPECT_EQ(sim.chaos()->events_applied(), 0u);
  EXPECT_EQ(sim.chaos()->cursor(), 0u);
  EXPECT_EQ(sim.config().device.link_error_rate_ppm, 0u);
  // The plan replays identically after the rewind.
  for (int i = 0; i < 20; ++i) sim.clock();
  EXPECT_EQ(sim.chaos()->events_applied(), 1u);
  EXPECT_EQ(sim.config().device.link_error_rate_ppm, 7777u);
}

TEST(ChaosSim, EveryLinkDeathIsLogged) {
  // kill -> revive -> kill: the link dies twice, and the flight recorder
  // logs LINK_FAILED for each death, at its kill cycle.
  DeviceConfig dc = proto_device();
  dc.flight_recorder_depth = 65536;
  Simulator sim = test::make_simple_sim(dc);
  arm(sim,
      "at 100 kill_link 1\n"
      "at 300 revive_link 1\n"
      "at 500 kill_link 1\n");
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 20000;
  HostDriver driver(sim, gen, dcfg);
  (void)driver.run();
  ASSERT_GT(sim.now(), 500u);

  std::ostringstream dump;
  ASSERT_TRUE(sim.dump_flight_recorder(dump));
  std::istringstream lines(dump.str());
  std::vector<Cycle> deaths;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("  LINK_FAILED  ") == std::string::npos) continue;
    std::istringstream fields(line);
    std::string word;
    Cycle cycle = 0;
    fields >> word >> cycle;
    deaths.push_back(cycle);
  }
  EXPECT_EQ(deaths, (std::vector<Cycle>{100, 500})) << dump.str();
}

}  // namespace
}  // namespace hmcsim
