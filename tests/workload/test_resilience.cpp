// Host-side resilience: per-tag response timeouts, retry with exponential
// backoff, zombie-tag conservation, and the abandon path once the retry
// budget is exhausted.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "tests/core/checkpoint_forge.hpp"
#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

using test::small_device;

DriverConfig resilient_cfg(u64 requests) {
  DriverConfig dcfg;
  dcfg.total_requests = requests;
  dcfg.max_cycles = 500000;
  return dcfg;
}

GeneratorConfig gen_cfg(const DeviceConfig& dc) {
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  return gc;
}

TEST(HostResilience, GenerousTimeoutNeverTrips) {
  DeviceConfig dc = small_device();
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  RandomAccessGenerator gen(gen_cfg(dc));
  DriverConfig dcfg = resilient_cfg(2000);
  dcfg.response_timeout_cycles = 100000;  // far beyond any real latency
  dcfg.retry_limit = 4;
  dcfg.retry_backoff_cycles = 16;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 2000u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.abandoned, 0u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(HostResilience, TightTimeoutRetriesAndConserves) {
  // A timeout below typical latency forces real timeouts; retries go out
  // under fresh tags while zombie tags wait for the late responses.  Every
  // logical request still terminates exactly once.
  DeviceConfig dc = small_device();
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  RandomAccessGenerator gen(gen_cfg(dc));
  DriverConfig dcfg = resilient_cfg(1000);
  dcfg.response_timeout_cycles = 4;  // p50 round-trip is ~5 cycles
  dcfg.retry_limit = 8;
  dcfg.retry_backoff_cycles = 2;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 1000u);
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_FALSE(r.hit_cycle_cap);
  // Terminations partition the request population.
  EXPECT_LE(r.abandoned, r.timeouts);
}

TEST(HostResilience, ExhaustedBudgetAbandonsDeterministically) {
  // With a 1-cycle timeout nothing ever answers in time: every request
  // burns its full retry budget and terminates as a host-side timeout.
  DeviceConfig dc = small_device();
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  RandomAccessGenerator gen(gen_cfg(dc));
  DriverConfig dcfg = resilient_cfg(64);
  dcfg.response_timeout_cycles = 1;
  dcfg.retry_limit = 2;
  dcfg.retry_backoff_cycles = 1;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, 64u);
  EXPECT_EQ(r.abandoned, 64u);
  EXPECT_EQ(r.retries, 2u * 64u);       // every request resent twice
  EXPECT_EQ(r.timeouts, 3u * 64u);      // initial send + both resends
  EXPECT_EQ(r.latency.count, 0u);       // no response beat its deadline
  EXPECT_FALSE(r.hit_cycle_cap);
}

TEST(HostResilience, BackoffDelaysResends) {
  // Same forced-timeout scenario at two backoff settings: the larger
  // backoff must stretch the run.
  const auto run_cycles = [](Cycle backoff) {
    DeviceConfig dc = small_device();
    dc.model_data = false;
    Simulator sim = test::make_simple_sim(dc);
    RandomAccessGenerator gen(gen_cfg(dc));
    DriverConfig dcfg = resilient_cfg(32);
    dcfg.response_timeout_cycles = 1;
    dcfg.retry_limit = 6;
    dcfg.retry_backoff_cycles = backoff;
    HostDriver driver(sim, gen, dcfg);
    const DriverResult r = driver.run();
    EXPECT_EQ(r.completed, 32u);
    EXPECT_EQ(r.abandoned, 32u);
    return r.cycles;
  };
  // Exponential: 128 << 5 = 4096 cycles on the last wait alone.
  EXPECT_GT(run_cycles(128), run_cycles(1) + 1000);
}

TEST(HostResilience, StepApiMatchesRun) {
  const auto make = [](Simulator& sim, RandomAccessGenerator& gen) {
    DriverConfig dcfg = resilient_cfg(500);
    dcfg.response_timeout_cycles = 4;
    dcfg.retry_limit = 4;
    dcfg.retry_backoff_cycles = 8;
    return HostDriver(sim, gen, dcfg);
  };
  DeviceConfig dc = small_device();
  dc.model_data = false;

  Simulator sim_a = test::make_simple_sim(dc);
  RandomAccessGenerator gen_a(gen_cfg(dc));
  HostDriver driver_a = make(sim_a, gen_a);
  const DriverResult ra = driver_a.run();

  Simulator sim_b = test::make_simple_sim(dc);
  RandomAccessGenerator gen_b(gen_cfg(dc));
  HostDriver driver_b = make(sim_b, gen_b);
  DriverResult rb;
  while (driver_b.step(rb)) {
  }
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.sent, rb.sent);
  EXPECT_EQ(ra.timeouts, rb.timeouts);
  EXPECT_EQ(ra.retries, rb.retries);
  EXPECT_EQ(ra.abandoned, rb.abandoned);
  EXPECT_EQ(ra.cycles, rb.cycles);
}

TEST(HostResilience, SaveRestoreRoundTripsDriverState) {
  // Mid-run save with live zombies and a populated retry queue; the
  // restored driver must finish with identical counters.
  DeviceConfig dc = small_device();
  dc.model_data = false;
  const auto cfg = [] {
    DriverConfig dcfg = resilient_cfg(600);
    dcfg.response_timeout_cycles = 4;  // below p50: real timeout traffic
    dcfg.retry_limit = 6;
    dcfg.retry_backoff_cycles = 8;
    return dcfg;
  }();

  // Reference: uninterrupted run.
  Simulator sim_ref = test::make_simple_sim(dc);
  RandomAccessGenerator gen_ref(gen_cfg(dc));
  HostDriver driver_ref(sim_ref, gen_ref, cfg);
  const DriverResult r_ref = driver_ref.run();

  // Interrupted run: step partway, checkpoint both layers, resume in
  // fresh objects.
  Simulator sim_a = test::make_simple_sim(dc);
  RandomAccessGenerator gen_a(gen_cfg(dc));
  HostDriver driver_a(sim_a, gen_a, cfg);
  DriverResult r_mid;
  // Injection alone takes tens of cycles, so 30 steps is safely mid-run
  // with live zombies and a populated retry queue.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(driver_a.step(r_mid));
  }
  std::stringstream sim_stream, driver_stream;
  ASSERT_EQ(sim_a.save_checkpoint(sim_stream), Status::Ok);
  ASSERT_EQ(driver_a.save(driver_stream), Status::Ok);

  Simulator sim_b;
  ASSERT_EQ(sim_b.restore_checkpoint(sim_stream), Status::Ok);
  RandomAccessGenerator gen_b(gen_cfg(dc));  // same seed, replayed inside
  HostDriver driver_b(sim_b, gen_b, cfg);
  ASSERT_EQ(driver_b.restore(driver_stream), Status::Ok);

  DriverResult r_b = r_mid;  // counters accumulated so far carry over
  while (driver_b.step(r_b)) {
  }
  EXPECT_EQ(r_b.completed, r_ref.completed);
  EXPECT_EQ(r_b.sent, r_ref.sent);
  EXPECT_EQ(r_b.timeouts, r_ref.timeouts);
  EXPECT_EQ(r_b.retries, r_ref.retries);
  EXPECT_EQ(r_b.abandoned, r_ref.abandoned);
  EXPECT_EQ(r_b.errors, r_ref.errors);
  EXPECT_EQ(r_b.cycles, r_ref.cycles);
}

/// The one word in which two equal-length HOST blobs differ, so no test
/// hard-codes the blob's field order.
usize differing_word(const std::string& a, const std::string& b) {
  EXPECT_EQ(a.size(), b.size());
  usize found = 0, differing = 0;
  for (usize w = 0; w < std::min(a.size(), b.size()) / 8; ++w) {
    if (test::load_word(a, 8 * w) != test::load_word(b, 8 * w)) {
      found = w;
      ++differing;
    }
  }
  EXPECT_EQ(differing, 1u);
  return found;
}

TEST(HostResilience, HostBlobWordsPastTheirFieldAreRefused) {
  // Every blob word is checked against the field it fills: a flag holds 0
  // or 1 and a command one byte; neither may be coerced on restore.
  const DeviceConfig dc = small_device();
  // Reads of one address, the first with `first`: blobs taken after one
  // step differ only in that request's in-flight command.
  class OneCommandGen final : public Generator {
   public:
    explicit OneCommandGen(Command first) : next_(first) {}
    RequestDesc next() override {
      const RequestDesc d{next_, 0x40};
      next_ = Command::Rd16;
      return d;
    }
    const char* name() const override { return "one-command"; }

   private:
    Command next_;
  };
  const auto blob = [&](Command first, bool hit_cycle_cap) {
    Simulator sim = test::make_simple_sim(dc);
    OneCommandGen gen(first);
    HostDriver driver(sim, gen, resilient_cfg(400));
    DriverResult result;
    EXPECT_TRUE(driver.step(result));
    result.hit_cycle_cap = hit_cycle_cap;
    return save_host_state(driver, result);
  };
  const auto restores = [&](const std::string& bytes) {
    Simulator sim = test::make_simple_sim(dc);
    OneCommandGen gen(Command::Rd16);
    HostDriver driver(sim, gen, resilient_cfg(400));
    DriverResult r;
    return ok(restore_host_state(bytes, driver, r));
  };
  const std::string base = blob(Command::Rd16, false);
  ASSERT_TRUE(restores(base));

  std::string flag = base;
  test::store_word(
      flag, 8 * differing_word(base, blob(Command::Rd16, true)), 2);
  EXPECT_FALSE(restores(flag)) << "hit_cycle_cap = 2";

  const usize cmd_word = differing_word(base, blob(Command::Rd32, false));
  ASSERT_EQ(test::load_word(base, 8 * cmd_word),
            static_cast<u64>(Command::Rd16));
  std::string cmd = base;
  test::store_word(cmd, 8 * cmd_word, 0x100);
  EXPECT_FALSE(restores(cmd)) << "command word = 0x100";
}

}  // namespace
}  // namespace hmcsim
