// Backend-parity proof suite.
//
// The vault timing model sits behind the VaultTimingBackend seam
// (src/backend/); this harness proves the seam changed nothing it did not
// mean to:
//
//   * `hmc_dram` (the default backend) reproduces the pre-refactor
//     simulator bit-for-bit.  The committed goldens under
//     tests/golden/backend_parity/ were generated from the tree *before*
//     the backend extraction and lock every observable a checkpoint
//     encodes: final cycle, every DeviceStats counter, the end-state
//     per-vault bank timing arrays, the per-vault DRAM RNG streams, and
//     the full packet-lifecycle latency histograms
//     (count/sum/min/max/buckets per class and segment).
//   * staged == fast-forward holds for every backend, not just the
//     default one (the differential harness covers hmc_dram; here the
//     same capture runs under generic_ddr and pcm_like).
//   * metamorphic timing identities per backend: a generic_ddr
//     parameterization algebraically equal to the hmc_dram model
//     reproduces its counters exactly, and pcm_like's asymmetric
//     latencies are visible in the measured histograms (write total
//     latency stochastically dominates read latency).
//
// To regenerate the goldens after an *intentional* timing change:
//
//   HMCSIM_UPDATE_GOLDEN=1 ctest -R BackendParity
//
// then review the diff like any other source change.  Do NOT regenerate
// to paper over an unintended divergence — the whole point of the file is
// to catch those.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tests/core/helpers.hpp"
#include "trace/lifecycle.hpp"
#include "workload/driver.hpp"
#include "workload/trace_file.hpp"

#ifndef HMCSIM_GOLDEN_DIR
#define HMCSIM_GOLDEN_DIR "tests/golden"
#endif

namespace hmcsim {
namespace {

enum class Kind : u8 { Random, Stream, TraceFile };

/// gtest prints a parameter that has no PrintTo as its raw bytes, and that
/// dump is part of every ctest name.  Fixed fields lead so the start of the
/// dump is the same on every build; a leading `name` pointer would print the
/// string's load address, which address-space randomization moves per run.
struct Scenario {
  u64 requests;
  Kind kind;
  bool open_page;  ///< OpenPage row policy (row-hit/miss timing paths)
  bool refresh;    ///< staggered refresh schedule on
  const char* name;
};

// Each scenario exercises a different slice of the vault timing model:
// closed-page busy windows, open-page hit/miss latencies, refresh
// participation, and the atomic (read-modify-write) path.
constexpr Scenario kScenarios[] = {
    // requests, kind, open_page, refresh, name
    {2500, Kind::Random, false, true, "random_closed_refresh"},
    {2500, Kind::Random, true, false, "random_open"},
    {2000, Kind::Stream, true, true, "stream_open_refresh"},
    {2000, Kind::TraceFile, false, false, "trace_mixed"},
};

DeviceConfig scenario_device(const Scenario& s) {
  DeviceConfig dc = test::small_device();
  if (s.open_page) {
    dc.row_policy = RowPolicy::OpenPage;
    // Defaults (6/22) scaled down to the small-device busy window.
    dc.row_hit_cycles = 2;
    dc.row_miss_cycles = 7;
  }
  if (s.refresh) {
    dc.refresh_interval_cycles = 512;
    dc.refresh_busy_cycles = 8;
  }
  return dc;
}

std::unique_ptr<Generator> make_generator(const Scenario& s, u64 capacity) {
  GeneratorConfig gc;
  gc.capacity_bytes = capacity;
  gc.seed = 4242;
  switch (s.kind) {
    case Kind::Random:
      return std::make_unique<RandomAccessGenerator>(gc);
    case Kind::Stream:
      return std::make_unique<StreamGenerator>(gc);
    case Kind::TraceFile: {
      SplitMix64 rng(0xbacc7e57u);
      const u64 blocks = capacity / 128;
      std::vector<RequestDesc> reqs;
      reqs.reserve(256);
      for (int i = 0; i < 256; ++i) {
        RequestDesc d;
        d.addr = 128 * rng.next_below(blocks);
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
        reqs.push_back(d);
      }
      return std::make_unique<TraceFileGenerator>(std::move(reqs));
    }
  }
  return nullptr;
}

void append_stats(std::ostream& os, const DeviceStats& s) {
  const struct {
    const char* name;
    u64 value;
  } fields[] = {
      {"reads", s.reads},
      {"writes", s.writes},
      {"atomics", s.atomics},
      {"mode_ops", s.mode_ops},
      {"custom_ops", s.custom_ops},
      {"bytes_read", s.bytes_read},
      {"bytes_written", s.bytes_written},
      {"responses", s.responses},
      {"error_responses", s.error_responses},
      {"bank_conflicts", s.bank_conflicts},
      {"xbar_rqst_stalls", s.xbar_rqst_stalls},
      {"xbar_rsp_stalls", s.xbar_rsp_stalls},
      {"vault_rsp_stalls", s.vault_rsp_stalls},
      {"latency_penalties", s.latency_penalties},
      {"route_hops", s.route_hops},
      {"misroutes", s.misroutes},
      {"link_errors", s.link_errors},
      {"link_retries", s.link_retries},
      {"refreshes", s.refreshes},
      {"row_hits", s.row_hits},
      {"row_misses", s.row_misses},
      {"sends", s.sends},
      {"send_stalls", s.send_stalls},
      {"recvs", s.recvs},
      {"flow_packets", s.flow_packets},
      {"dram_sbes", s.dram_sbes},
      {"dram_dbes", s.dram_dbes},
      {"scrub_steps", s.scrub_steps},
      {"scrub_corrections", s.scrub_corrections},
      {"scrub_uncorrectables", s.scrub_uncorrectables},
      {"vault_failures", s.vault_failures},
      {"vault_remaps", s.vault_remaps},
      {"degraded_drops", s.degraded_drops},
      {"link_crc_errors", s.link_crc_errors},
      {"link_seq_errors", s.link_seq_errors},
      {"link_abort_entries", s.link_abort_entries},
      {"link_irtry_tx", s.link_irtry_tx},
      {"link_irtry_rx", s.link_irtry_rx},
      {"link_pret_tx", s.link_pret_tx},
      {"link_tret_tx", s.link_tret_tx},
      {"link_replayed_flits", s.link_replayed_flits},
      {"link_token_stalls", s.link_token_stalls},
      {"link_retrain_cycles", s.link_retrain_cycles},
      {"link_failures", s.link_failures},
      {"link_tokens_debited", s.link_tokens_debited},
      {"link_tokens_returned", s.link_tokens_returned},
      {"pcm_write_throttle_stalls", s.pcm_write_throttle_stalls},
  };
  for (const auto& f : fields) os << "stat " << f.name << ' ' << f.value
                                  << '\n';
}

void append_latency(std::ostream& os, const LifecycleSink& sink) {
  os << "life completed " << sink.completed() << '\n';
  os << "life conflicted " << sink.conflicted() << '\n';
  for (usize c = 0; c < kOpClassCount; ++c) {
    for (usize seg = 0; seg < kLifecycleSegmentCount; ++seg) {
      const LatencyStats& ls = sink.stats(static_cast<OpClass>(c),
                                          static_cast<LifecycleSegment>(seg));
      if (ls.count == 0) continue;
      os << "hist " << c << ' ' << seg << ' ' << ls.count << ' ' << ls.sum
         << ' ' << ls.min << ' ' << ls.max << " |";
      for (usize b = 0; b < ls.log2_buckets.size(); ++b) {
        if (ls.log2_buckets[b] != 0) {
          os << ' ' << b << ':' << ls.log2_buckets[b];
        }
      }
      os << '\n';
    }
  }
}

/// Canonical text rendering of everything the vault timing model can
/// influence: the finish cycle, every stats counter, the end-state bank
/// timing arrays and RNG streams, and the latency histograms.  Two runs
/// are timing-equivalent iff their captures are string-equal.
std::string capture(const Scenario& s, DeviceConfig dc, bool fast_forward) {
  dc.fast_forward = fast_forward;
  Simulator sim;
  std::string diag;
  EXPECT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;
  auto sink = std::make_shared<LifecycleSink>();
  sim.add_lifecycle_observer(sink);

  auto gen = make_generator(s, sim.config().device.derived_capacity());
  DriverConfig dcfg;
  dcfg.total_requests = s.requests;
  dcfg.max_cycles = 400000;
  HostDriver driver(sim, *gen, dcfg);
  const DriverResult r = driver.run();
  // An idle tail crosses more refresh boundaries and (in fast-forward
  // runs) guarantees the skip engine engages.
  for (u32 i = 0; i < 2000; ++i) sim.clock();

  std::ostringstream os;
  os << "scenario " << s.name << '\n';
  os << "cycle " << sim.now() << '\n';
  os << "driver cycles " << r.cycles << " sent " << r.sent << " completed "
     << r.completed << " errors " << r.errors << '\n';
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    os << "device " << d << '\n';
    append_stats(os, sim.stats(d));
    const Device& dev = sim.device(d);
    for (usize v = 0; v < dev.vaults.size(); ++v) {
      const VaultState& vault = dev.vaults[v];
      os << "vault " << v << " busy";
      for (const Cycle busy : vault.bank_busy_until) os << ' ' << busy;
      os << '\n';
      os << "vault " << v << " row";
      for (const u64 row : vault.open_row) os << ' ' << row;
      os << '\n';
      os << "vault " << v << " rng " << vault.dram_rng.state() << '\n';
    }
  }
  append_latency(os, *sink);
  return std::move(os).str();
}

std::string golden_path(const Scenario& s) {
  return std::string(HMCSIM_GOLDEN_DIR) + "/backend_parity/" + s.name +
         ".txt";
}

void expect_matches_golden(const Scenario& s, const std::string& got) {
  const std::string path = golden_path(s);
  if (std::getenv("HMCSIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path
                            << " (does tests/golden/backend_parity/ exist?)";
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with HMCSIM_UPDATE_GOLDEN=1 ctest -R BackendParity";
  std::ostringstream want;
  want << in.rdbuf();
  const std::string expected = std::move(want).str();
  if (got == expected) return;
  // Point at the first differing line so the failure reads like a diff.
  std::istringstream ga(expected);
  std::istringstream gb(got);
  std::string la;
  std::string lb;
  usize line = 0;
  while (true) {
    const bool ha = static_cast<bool>(std::getline(ga, la));
    const bool hb = static_cast<bool>(std::getline(gb, lb));
    ++line;
    if (!ha && !hb) break;
    if (la != lb || ha != hb) {
      FAIL() << s.name << " diverges from the pre-refactor golden at line "
             << line << "\n  golden: " << (ha ? la : "<eof>")
             << "\n  got:    " << (hb ? lb : "<eof>")
             << "\nThe hmc_dram backend must be bit-identical to the "
                "pre-refactor simulator; only regenerate for an intentional "
                "timing change.";
    }
  }
}

/// Non-default backend parameterizations for the staged vs fast-forward
/// runs.  Values are scaled to the small-device geometry (bank_busy 2) so
/// the scenarios finish quickly but still overlap refresh windows and the
/// pcm write throttle.
DeviceConfig with_backend(DeviceConfig dc, TimingBackend backend) {
  dc.timing_backend = backend;
  if (backend == TimingBackend::GenericDdr) {
    dc.ddr_tcl = 3;
    dc.ddr_trcd = 2;
    dc.ddr_trp = 2;
    dc.ddr_tras = 6;
  } else if (backend == TimingBackend::PcmLike) {
    dc.pcm_read_cycles = 4;
    dc.pcm_write_cycles = 12;
    dc.pcm_write_gap_cycles = 6;
  }
  return dc;
}

class BackendParity : public ::testing::TestWithParam<Scenario> {};

// The headline proof: the default backend reproduces the pre-refactor
// simulator exactly, scenario by scenario.
TEST_P(BackendParity, HmcDramMatchesPreRefactorGolden) {
  const Scenario& s = GetParam();
  const std::string got =
      capture(s, scenario_device(s), /*fast_forward=*/false);
  // Non-vacuousness: the run must have been a real run.
  EXPECT_NE(got.find("completed " + std::to_string(s.requests)),
            std::string::npos);
  expect_matches_golden(s, got);
}

// staged == fast-forward must hold for the new backends too: their
// gate()/issue() decisions may only depend on absolute cycles, never on
// whether the clock engine skipped idle ones.
TEST_P(BackendParity, StagedFastForwardAgreePerBackend) {
  const Scenario& s = GetParam();
  for (const TimingBackend backend :
       {TimingBackend::GenericDdr, TimingBackend::PcmLike}) {
    SCOPED_TRACE(to_string(backend));
    const DeviceConfig dc = with_backend(scenario_device(s), backend);
    EXPECT_EQ(capture(s, dc, /*fast_forward=*/false),
              capture(s, dc, /*fast_forward=*/true))
        << "fast-forward changed " << to_string(backend) << " timing";
  }
}

// Metamorphic identity: a generic_ddr parameterization algebraically equal
// to the hmc_dram model (hit = tCL, miss = max(tRCD+tCL, tRAS)+tRP) must
// reproduce the default backend bit-for-bit — same counters, same bank
// arrays, same histograms.
TEST_P(BackendParity, GenericDdrEquivalenceMappingMatchesHmcDram) {
  const Scenario& s = GetParam();
  const DeviceConfig hmc = scenario_device(s);
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
  EXPECT_EQ(capture(s, ddr, /*fast_forward=*/false),
            capture(s, hmc, /*fast_forward=*/false))
      << "generic_ddr with the hmc_dram-equivalent parameters must be "
         "indistinguishable from hmc_dram";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, BackendParity,
                         ::testing::ValuesIn(kScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---- pcm_like asymmetry ----------------------------------------------------

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
  DeviceConfig dc =
      with_backend(test::small_device(), TimingBackend::PcmLike);
  Simulator sim;
  std::string diag;
  EXPECT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;
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
}  // namespace hmcsim
