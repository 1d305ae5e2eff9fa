// Injected link errors ("error simulation", paper §IV requirement 5): the
// HMC 1.0 link retry protocol corrupts transmissions at the configured
// rate, replays them from the retry buffer, and once a packet's replay
// budget is spent it dies as an in-band CRC_FAILURE error response — no
// request is ever silently lost.
#include <gtest/gtest.h>

#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

using test::small_device;

/// A packet dies once `retry_limit` replays have been corrupted too, so
/// with one replay the death odds per link crossing are rate².
DeviceConfig faulty_device(u32 rate_ppm, u32 retry_limit) {
  DeviceConfig dc = test::proto_device();
  dc.link_error_rate_ppm = rate_ppm;
  dc.link_retry_limit = retry_limit;
  return dc;
}

/// Send one request on device 0, clocking while its link is in
/// error-abort: the protocol backpressures injection instead of dropping.
Status send_when_accepted(Simulator& sim, u32 link, PhysAddr addr, Tag tag) {
  Status s = Status::Stalled;
  for (int attempt = 0; attempt < 1000 && s == Status::Stalled; ++attempt) {
    s = test::send_request(sim, 0, link, Command::Rd16, addr, tag);
    if (s == Status::Stalled) sim.clock();
  }
  return s;
}

DriverResult run_random(Simulator& sim, u64 requests, u64 max_cycles) {
  GeneratorConfig gc;
  gc.capacity_bytes = sim.config().device.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = requests;
  dcfg.max_cycles = max_cycles;
  HostDriver driver(sim, gen, dcfg);
  return driver.run();
}

TEST(FaultInjection, ZeroRateInjectsNothing) {
  DeviceConfig dc = small_device();
  dc.link_error_rate_ppm = 0;
  Simulator sim = test::make_simple_sim(dc);
  for (Tag t = 0; t < 32; ++t) {
    ASSERT_EQ(test::send_request(sim, 0, t % 4, Command::Rd16, 64 * t, t),
              Status::Ok);
  }
  const auto responses = test::drain_all(sim, 2000);
  EXPECT_EQ(responses.size(), 32u);
  for (const auto& r : responses) EXPECT_NE(r.cmd, Command::Error);
  EXPECT_EQ(sim.stats(0).link_errors, 0u);
}

TEST(FaultInjection, FullRateKillsEveryPacket) {
  // Certain corruption: every transmission and every replay fails.
  Simulator sim = test::make_simple_sim(faulty_device(1'000'000, 1));
  for (Tag t = 0; t < 16; ++t) {
    ASSERT_EQ(send_when_accepted(sim, t % 4, 64 * t, t), Status::Ok);
  }
  const auto responses = test::drain_all(sim, 2000);
  ASSERT_EQ(responses.size(), 16u);  // every request still answers
  for (const auto& r : responses) {
    EXPECT_EQ(r.cmd, Command::Error);
    EXPECT_EQ(r.errstat, ErrStat::CrcFailure);
  }
  EXPECT_EQ(sim.stats(0).link_errors, 16u);
  EXPECT_EQ(sim.stats(0).reads, 0u);  // nothing reached a bank
}

TEST(FaultInjection, PartialRateConservesRequests) {
  // 316228 ppm is sqrt(0.1): with one replay, ~10% of packets die.
  DeviceConfig dc = faulty_device(316'228, 1);
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  const DriverResult r = run_random(sim, 3000, 500000);

  // Every request completes: either with data or with an error response.
  EXPECT_EQ(r.completed, 3000u);
  EXPECT_FALSE(r.hit_cycle_cap);
  const DeviceStats s = sim.total_stats();
  EXPECT_EQ(r.errors, s.link_errors);
  EXPECT_EQ(s.retired() + s.link_errors, 3000u);
  // The observed rate is in the right ballpark (binomial 3-sigma ~ 1.6%).
  EXPECT_NEAR(static_cast<double>(r.errors) / 3000.0, 0.10, 0.025);
}

TEST(FaultInjection, DeterministicPerSeed) {
  const auto run_errors = [](u64 seed) {
    // 223607 ppm is sqrt(0.05): ~5% of packets die.
    DeviceConfig dc = faulty_device(223'607, 1);
    dc.fault_seed = seed;
    dc.model_data = false;
    Simulator sim = test::make_simple_sim(dc);
    return run_random(sim, 1000, 200000).errors;
  };
  EXPECT_EQ(run_errors(1), run_errors(1));
  // Different seeds should (overwhelmingly) fault different packets.
  EXPECT_NE(run_errors(1), run_errors(0xABCDEF));
}

TEST(LinkRetry, RetryBudgetAbsorbsTransientErrors) {
  // ~30% error rate with a healthy replay budget: every request should
  // survive (P(9 consecutive corruptions) ~ 2e-5, and the budget renews
  // per link crossing).
  DeviceConfig dc = faulty_device(300'000, 8);
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  const DriverResult r = run_random(sim, 2000, 500000);
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_EQ(r.errors, 0u);  // all errors absorbed by retries
  const DeviceStats s = sim.total_stats();
  EXPECT_GT(s.link_retries, 400u);  // ~30% of 2000 at minimum
  EXPECT_EQ(s.link_errors, 0u);
  EXPECT_EQ(s.retired(), 2000u);
}

TEST(LinkRetry, TransientErrorRecoveredByRetransmission) {
  // Close the retry-success accounting path at single-request granularity:
  // with a 50% corruption rate and a deep budget, a lone request is
  // (deterministically, per fixed seed) corrupted at least once, replayed
  // from a retry-buffer copy whose CRC still checks out, and still answers
  // with DATA — link_retries counts the replays while link_errors stays
  // zero.
  DeviceConfig dc = faulty_device(500'000, 16);
  dc.fault_seed = 3;
  Simulator sim = test::make_simple_sim(dc);
  u32 retried_runs = 0;
  for (Tag t = 0; t < 8; ++t) {
    const u64 before = sim.stats(0).link_retries;
    ASSERT_EQ(test::send_request(sim, 0, t % 4, Command::Rd16, 0x100 * t, t),
              Status::Ok);
    const auto rsp = test::await_response(sim, 0, t % 4, 500);
    ASSERT_TRUE(rsp.has_value());
    EXPECT_NE(rsp->cmd, Command::Error);  // recovered, not failed
    EXPECT_EQ(rsp->tag, t);
    if (sim.stats(0).link_retries > before) ++retried_runs;
  }
  // At 50% corruption, P(zero of 8 requests needing a replay) ~ 0.4%.
  EXPECT_GT(retried_runs, 0u);
  EXPECT_GT(sim.stats(0).link_retries, 0u);
  EXPECT_EQ(sim.stats(0).link_errors, 0u);
  EXPECT_EQ(sim.stats(0).retired(), 8u);

  // The same holds for a whole workload: healthy packets replay as often
  // as they need to and every one retires.
  Simulator loaded = test::make_simple_sim(dc);
  const DriverResult r = run_random(loaded, 500, 200000);
  EXPECT_EQ(r.completed, 500u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(loaded.total_stats().link_retries, 0u);
  EXPECT_EQ(loaded.total_stats().link_errors, 0u);
}

TEST(LinkRetry, ExhaustedBudgetStillFails) {
  // Certain corruption: every packet burns its whole replay budget, never
  // more, and then dies with CRC_FAILURE.
  for (const u32 limit : {1u, 3u}) {
    SCOPED_TRACE("link_retry_limit " + std::to_string(limit));
    Simulator sim = test::make_simple_sim(faulty_device(1'000'000, limit));
    for (Tag t = 0; t < 8; ++t) {
      ASSERT_EQ(send_when_accepted(sim, t % 4, 64 * t, t), Status::Ok);
    }
    const auto responses = test::drain_all(sim, 2000);
    ASSERT_EQ(responses.size(), 8u);
    for (const auto& r : responses) {
      EXPECT_EQ(r.cmd, Command::Error);
      EXPECT_EQ(r.errstat, ErrStat::CrcFailure);
    }
    EXPECT_EQ(sim.stats(0).link_retries, 8u * limit);
    EXPECT_EQ(sim.stats(0).link_errors, 8u);
  }
}

TEST(LinkRetry, RetriesCostCycles) {
  // At equal (survivable) error rates, a run with retries takes longer
  // than an error-free run: every error-abort holds the link for the
  // retry latency.
  const auto run_cycles = [](u32 rate_ppm) {
    DeviceConfig dc = faulty_device(rate_ppm, 16);
    dc.xbar_flits_per_cycle = 2;  // make link time the bottleneck
    dc.model_data = false;
    Simulator sim = test::make_simple_sim(dc);
    const DriverResult r = run_random(sim, 2000, 500000);
    EXPECT_EQ(r.completed, 2000u);
    EXPECT_EQ(r.errors, 0u);
    return r.cycles;
  };
  const Cycle clean = run_cycles(0);
  const Cycle noisy = run_cycles(400'000);
  EXPECT_GT(noisy, clean + clean / 4);  // >25% slower under 40% corruption
}

TEST(FaultInjection, ChainedLinksMultiplyExposure) {
  // A request to a deep cube crosses more links, so per-request death
  // probability grows with chain depth.
  const auto error_fraction = [](u32 target_cub) {
    SimConfig sc;
    sc.num_devices = 4;
    // 282843 ppm is sqrt(0.08): ~8% of packets die per link crossing.
    DeviceConfig dc = faulty_device(282'843, 1);
    dc.model_data = false;
    sc.device = dc;
    std::string err;
    Topology topo = make_chain(4, 4, 2, 1, &err);
    EXPECT_GT(topo.num_devices(), 0u) << err;
    Simulator sim;
    EXPECT_EQ(sim.init(sc, std::move(topo)), Status::Ok);
    GeneratorConfig gc;
    gc.capacity_bytes = dc.derived_capacity();
    RandomAccessGenerator gen(gc);
    DriverConfig dcfg;
    dcfg.total_requests = 2000;
    dcfg.target_cub = target_cub;
    dcfg.max_cycles = 1000000;
    HostDriver driver(sim, gen, dcfg);
    const DriverResult r = driver.run();
    EXPECT_EQ(r.completed, 2000u);
    return static_cast<double>(r.errors) / 2000.0;
  };
  const double near = error_fraction(0);
  const double far = error_fraction(3);
  EXPECT_GT(far, near * 1.5);
}

}  // namespace
}  // namespace hmcsim
