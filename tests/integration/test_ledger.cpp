// The behaviour ledger: every row of the scenario table (scenario.hpp) run
// once on the staged path, rendered to a small text digest and diffed
// against tests/golden/ledger/<row>.txt.
//
// A digest holds the driver's counters and latency histogram, the packet
// lifecycle histograms, and each cube's nonzero DeviceStats counters.  Its
// trail pins the rest of the machine (queues, banks, RNG streams, memory,
// chaos cursor): the size and CRC-32 of a checkpoint every 64 cycles while
// the driver is live, and at the end.  Every row's traffic lasts 100 to
// 620 cycles, so the first trail line that differs names the 64-cycle
// window of it in which the machine diverged (or the idle tail, after the
// last live mark).  The CRC is IEEE CRC-32, kept independent of the
// simulator's own CRC-32K, so the digest does not trust the code it checks.
//
// test_differential.cpp proves the execution strategies agree with each
// other; the ledger proves that what they agree on has not moved.  An
// intentional behaviour change regenerates the digests (tests/golden.hpp)
// and shows their diff.  Below the ledger, the timing backends'
// metamorphic identities run on the same rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tests/golden.hpp"
#include "tests/integration/scenario.hpp"

namespace hmcsim::test {
namespace {

constexpr Cycle kTrailCycles = 64;

/// Reflected 0xEDB88320, one byte per step.
u32 crc32_ieee(const std::string& bytes) {
  static const std::array<u32, 256> table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  u32 crc = 0xffffffffu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<u8>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

/// Non-vacuity: the run was a real run that reached its row's axis.
void expect_exercised(const Scenario& s, const Simulator& sim,
                      const RowRun& run) {
  EXPECT_EQ(run.result().sent, s.requests);
  EXPECT_EQ(run.result().completed, s.requests);
  std::istringstream proofs(s.nonzero_stats);
  for (std::string name; proofs >> name;) {
    const auto f = std::find_if(
        std::begin(kStatFields), std::end(kStatFields),
        [&](const StatField& sf) { return sf.name == name; });
    ASSERT_NE(f, std::end(kStatFields)) << name;
    EXPECT_GT(sim.total_stats().*f->member, 0u) << name;
  }
  if (s.has(kDeepQueues)) {
    // Some vault queue held more requests than it has banks, so the
    // ordering gates had non-head entries to choose among.
    usize deepest = 0;
    for (u32 d = 0; d < sim.num_devices(); ++d) {
      for (const VaultState& vault : sim.device(d).vaults) {
        deepest = std::max(deepest, vault.rqst.stats().high_water);
      }
    }
    EXPECT_GT(deepest, sim.config().device.banks_per_vault);
  }
  if (const ChaosEngine* chaos = sim.chaos()) {
    EXPECT_EQ(chaos->events_applied(), chaos->plan().events.size());
    EXPECT_FALSE(sim.chaos_violated()) << sim.chaos_report();
  }
}

/// The row's digest with its checkpoint trail appended.
std::string ledger_digest(const Scenario& s) {
  DeviceConfig dc = scenario_device(s);
  dc.fast_forward = false;
  Simulator sim;
  std::string diag;
  EXPECT_EQ(build_sim(s, dc, sim, &diag), Status::Ok) << diag;
  RowRun run(s, sim, /*idle_windows=*/false);
  std::ostringstream trail;
  const auto mark = [&](const char* what) {
    std::ostringstream ckpt;
    EXPECT_EQ(sim.save_checkpoint(ckpt), Status::Ok);
    const std::string bytes = std::move(ckpt).str();
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x", crc32_ieee(bytes));
    trail << what << ' ' << sim.now() << ' ' << bytes.size() << ' ' << crc
          << '\n';
  };
  while (run.advance()) {
    if (run.driving() && sim.now() % kTrailCycles == 0) mark("trail");
  }
  mark("end");
  expect_exercised(s, sim, run);
  return run.digest() + std::move(trail).str();
}

/// The "trail" and "end" lines of a digest.
std::vector<std::string> trail_of(const std::string& digest) {
  std::vector<std::string> lines;
  std::istringstream is(digest);
  for (std::string line; std::getline(is, line);) {
    if (line.starts_with("trail ") || line.starts_with("end ")) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// A trail line's cycle.
u64 trail_cycle(const std::string& line) {
  return std::stoull(line.substr(line.find(' ') + 1));
}

TEST(LedgerCrc, IsTheIeeeCheckValue) {
  EXPECT_EQ(crc32_ieee("123456789"), 0xcbf43926u);
}

class Ledger : public ::testing::TestWithParam<Scenario> {};

TEST_P(Ledger, DigestMatchesGolden) {
  const Scenario& s = GetParam();
  SCOPED_TRACE(s.name);
  const std::string got = ledger_digest(s);
  const std::string want =
      expect_golden(std::string("ledger/") + s.name + ".txt", got);
  if (want.empty() || want == got) return;
  const std::vector<std::string> a = trail_of(want);
  const std::vector<std::string> b = trail_of(got);
  for (usize i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] == b[i]) continue;
    ADD_FAILURE() << s.name << ": the machine first diverged in cycles ("
                  << (i == 0 ? 0 : trail_cycle(a[i - 1])) << ", "
                  << trail_cycle(a[i]) << "]\n  golden: " << a[i]
                  << "\n  got:    " << b[i];
    return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, Ledger,
                         ::testing::ValuesIn(kScenarios),
                         ::testing::PrintToStringParamName());

// ---- timing backend identities ---------------------------------------------

/// Everything the vault timing model can influence, without the checkpoint
/// (whose config section names the backend): the digest, and every vault's
/// end-state bank timing, open rows and DRAM RNG stream.
std::string timing_capture(const Scenario& s, const DeviceConfig& dc) {
  Simulator sim;
  std::string diag;
  EXPECT_EQ(build_sim(s, dc, sim, &diag), Status::Ok) << diag;
  RowRun run(s, sim, /*idle_windows=*/false);
  run.finish();
  std::ostringstream os;
  os << run.digest();
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    for (const VaultState& vault : sim.device(d).vaults) {
      os << "busy";
      for (const Cycle busy : vault.bank_busy_until) os << ' ' << busy;
      os << "\nrow";
      for (const u64 row : vault.open_row) os << ' ' << row;
      os << "\nrng " << vault.dram_rng.state() << '\n';
    }
  }
  return std::move(os).str();
}

class BackendParity : public ::testing::TestWithParam<Scenario> {};

// Metamorphic identity: a generic_ddr parameterization algebraically equal
// to the hmc_dram model (hit = tCL, miss = max(tRCD+tCL, tRAS)+tRP) must
// reproduce the default backend bit-for-bit.
TEST_P(BackendParity, GenericDdrEquivalenceMappingMatchesHmcDram) {
  const Scenario& s = GetParam();
  const DeviceConfig hmc =
      with_backend(scenario_device(s), TimingBackend::HmcDram);
  DeviceConfig ddr = hmc;
  ddr.timing_backend = TimingBackend::GenericDdr;
  ddr.ddr_trcd = 0;
  ddr.ddr_tras = 0;
  if (hmc.row_policy == RowPolicy::OpenPage) {
    ddr.ddr_tcl = hmc.row_hit_cycles;
    ddr.ddr_trp = hmc.row_miss_cycles - hmc.row_hit_cycles;
  } else {
    ddr.ddr_tcl = hmc.bank_busy_cycles;
    ddr.ddr_trp = 0;
  }
  EXPECT_EQ(timing_capture(s, ddr), timing_capture(s, hmc))
      << "generic_ddr with the hmc_dram-equivalent parameters must be "
         "indistinguishable from hmc_dram";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, BackendParity,
                         ::testing::ValuesIn(kScenarios),
                         ::testing::PrintToStringParamName());

struct PcmRun {
  u64 cycles{0};
  u64 throttle_stalls{0};
  LatencyStats read_service;
  LatencyStats write_service;
};

/// Drive `requests` random accesses with the given read mix through a
/// pcm_like device and measure drain time, throttle stalls, and the
/// per-class bank-service histograms (vault arrival to retire).
PcmRun pcm_run(double read_fraction, u64 requests) {
  Simulator sim =
      make_simple_sim(with_backend(small_device(), TimingBackend::PcmLike));
  auto sink = std::make_shared<LifecycleSink>();
  sim.add_lifecycle_observer(sink);
  GeneratorConfig gc;
  gc.capacity_bytes = sim.config().device.derived_capacity();
  gc.seed = 777;
  gc.read_fraction = read_fraction;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = requests;
  dcfg.max_cycles = 400000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  EXPECT_EQ(r.completed, requests);

  PcmRun out;
  out.cycles = r.cycles;
  out.throttle_stalls = sim.total_stats().pcm_write_throttle_stalls;
  const auto service = [&](OpClass c) {
    // Bank-service window: vault arrival through retire (VaultQueue +
    // BankConflict), the part of the pipeline the backend owns.
    LatencyStats merged = sink->stats(c, LifecycleSegment::VaultQueue);
    merged.merge(sink->stats(c, LifecycleSegment::BankConflict));
    return merged;
  };
  out.read_service = service(OpClass::Read);
  out.write_service = service(OpClass::Write);
  return out;
}

// The backend's defining asymmetry must show up in measured behavior, not
// just in the configuration: a write-only workload drains slower than the
// identical read-only one, the vault-wide write gap produces throttle
// stalls only when writes flow, and in a mixed run the write bank-service
// histogram sits above the read one.
TEST(BackendMetamorphic, PcmWriteLatencyDominatesReadLatency) {
  const PcmRun reads = pcm_run(1.0, 1500);
  const PcmRun writes = pcm_run(0.0, 1500);
  EXPECT_GT(writes.cycles, reads.cycles)
      << "pcm writes occupy banks 3x longer than reads; an all-write run "
         "cannot drain as fast as an all-read run";
  EXPECT_GT(writes.throttle_stalls, 0u);
  EXPECT_EQ(reads.throttle_stalls, 0u)
      << "the write-bandwidth throttle must never gate reads";

  const PcmRun mixed = pcm_run(0.5, 1500);
  ASSERT_GT(mixed.read_service.count, 0u);
  ASSERT_GT(mixed.write_service.count, 0u);
  const double read_mean = static_cast<double>(mixed.read_service.sum) /
                           static_cast<double>(mixed.read_service.count);
  const double write_mean = static_cast<double>(mixed.write_service.sum) /
                            static_cast<double>(mixed.write_service.count);
  EXPECT_GE(write_mean, read_mean)
      << "mixed-run write bank-service latency must dominate reads";
  EXPECT_GE(mixed.write_service.max, mixed.read_service.min);
}

}  // namespace
}  // namespace hmcsim::test
