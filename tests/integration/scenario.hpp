// The proof suites' one scenario table, and the one place each part of a
// row's run is made: its device, topology, generator and drive.
//
// test_ledger.cpp pins each row's absolute behaviour against a committed
// digest, and test_differential.cpp runs each row under every execution
// strategy; test_conservation.cpp shares the backend parameters, the RAS
// storm and the mixed-command trace.
#pragma once

#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "tests/core/helpers.hpp"
#include "topo/topology.hpp"
#include "trace/lifecycle.hpp"
#include "workload/driver.hpp"
#include "workload/trace_file.hpp"

namespace hmcsim::test {

enum class Kind : u8 { Random, Stream, Trace };

enum class Topo : u8 {
  Simple,    ///< one cube, every link to the host
  Chain3,    ///< three cubes in a line, two host and two trunk links
  Torus2x2,  ///< a 2x2 torus of 8-link cubes, host on cube 0
};

/// What a row turns on, applied by scenario_device() in this order.
enum Feature : u32 {
  kOpenPage = 1u << 0,     ///< OpenPage rows, timings scaled to the device
  kRefresh = 1u << 1,      ///< staggered refresh every 512 cycles
  kDeepQueues = 1u << 2,   ///< 16-deep vault queues, twice the banks
  kDrainLimit = 1u << 3,   ///< at most two retires per vault-cycle
  kStrictFifo = 1u << 4,   ///< retire in arrival order only
  kRasStorm = 1u << 5,     ///< ras_storm()
  kUniformStorm = 1u << 6, ///< independent CRC/SEQ corruption per arrival
  kBurstStorm = 1u << 7,   ///< one roll corrupts four packets in a row
  kRetrainStorm = 1u << 8, ///< periodic stuck-link windows on every link
  kDeadLink = 1u << 9,     ///< retry exhaustion escalates to dead links
  kVaultFail = 1u << 10,   ///< DBEs fail vaults, which then drain as errors
  kVaultRemap = 1u << 11,  ///< kVaultFail, with failed vaults remapped
  kScrub = 1u << 12,       ///< SBEs plus a fast scrubber
  kModeOps = 1u << 13,     ///< MODE_READ / MODE_WRITE in the trace
  kCmc = 1u << 14,         ///< posted CMC traffic beside the driver's
  kChaos = 1u << 15,       ///< kChaosPlan armed at init
};

/// One row.  gtest prints a parameter through its PrintTo, the row name.
struct Scenario {
  const char* name;
  u64 requests;
  Kind kind{Kind::Random};
  u64 seed{1234};  ///< the generator's seed, or a Trace row's trace seed
  u32 links{4};
  Topo topo{Topo::Simple};
  u32 features{0};
  TimingBackend backend{TimingBackend::HmcDram};
  double read_fraction{0.5};
  /// Counters the row must drive above zero, summed over cubes and
  /// separated by spaces: the proof that it reached its axes.
  const char* nonzero_stats{""};

  [[nodiscard]] bool has(u32 f) const { return (features & f) != 0; }
};

inline void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

inline constexpr Scenario kScenarios[] = {
    // The eight former backend-parity scenarios (seed 4242).  The deep
    // rows queue twice as many requests per vault as it has banks, so the
    // drain limit and strict FIFO decide which non-head entries retire;
    // the last two reach pcm_like's write throttle and the vault
    // response-queue stall.
    {.name = "random_closed_refresh", .requests = 2500, .seed = 4242,
     .features = kRefresh},
    {.name = "random_open", .requests = 2500, .seed = 4242,
     .features = kOpenPage},
    {.name = "stream_open_refresh", .requests = 2000, .kind = Kind::Stream,
     .seed = 4242, .features = kOpenPage | kRefresh},
    {.name = "trace_mixed", .requests = 2000, .kind = Kind::Trace,
     .seed = 0xbacc7e57u},
    {.name = "deep_drain_limit", .requests = 2500, .seed = 4242,
     .features = kRefresh | kDeepQueues | kDrainLimit},
    {.name = "deep_strict_fifo", .requests = 2500, .seed = 4242,
     .features = kOpenPage | kDeepQueues | kStrictFifo},
    {.name = "pcm_deep_throttle", .requests = 2500, .seed = 4242,
     .features = kRefresh | kDeepQueues, .backend = TimingBackend::PcmLike,
     .nonzero_stats = "pcm_write_throttle_stalls"},
    {.name = "rsp_bound_reads", .requests = 2500, .seed = 4242,
     .read_fraction = 1.0, .nonzero_stats = "vault_rsp_stalls"},
    // The eight former differential scenarios (seed 1234).
    {.name = "random_4link", .requests = 3000},
    {.name = "random_8link_ras", .requests = 3000, .links = 8,
     .features = kRasStorm, .nonzero_stats = "dram_sbes"},
    {.name = "stream_4link_ras", .requests = 2500, .kind = Kind::Stream,
     .features = kRasStorm, .nonzero_stats = "dram_sbes"},
    {.name = "trace_8link", .requests = 2500, .kind = Kind::Trace,
     .seed = 0xd1ffe7e57u, .links = 8},
    {.name = "random_chain3_ras", .requests = 1500, .links = 8,
     .topo = Topo::Chain3, .features = kRasStorm,
     .nonzero_stats = "dram_sbes"},
    {.name = "linkstorm_uniform_4link", .requests = 2000,
     .features = kUniformStorm, .nonzero_stats = "link_crc_errors"},
    {.name = "linkstorm_burst_8link", .requests = 2000, .links = 8,
     .features = kBurstStorm, .nonzero_stats = "link_crc_errors"},
    {.name = "linkstorm_retrain_chain3", .requests = 1200, .links = 8,
     .topo = Topo::Chain3, .features = kRasStorm | kRetrainStorm,
     .nonzero_stats = "dram_sbes link_crc_errors link_retrain_cycles"},
    // Axes nothing else pins.
    {.name = "torus_2x2", .requests = 2000, .links = 8,
     .topo = Topo::Torus2x2, .nonzero_stats = "route_hops"},
    {.name = "chain3_4link_ddr_open", .requests = 1500, .kind = Kind::Stream,
     .topo = Topo::Chain3, .features = kOpenPage | kRefresh,
     .backend = TimingBackend::GenericDdr,
     .nonzero_stats = "route_hops row_hits refreshes"},
    {.name = "chain3_4link_pcm_fifo", .requests = 1500, .topo = Topo::Chain3,
     .features = kDeepQueues | kStrictFifo, .backend = TimingBackend::PcmLike,
     .nonzero_stats = "route_hops pcm_write_throttle_stalls"},
    {.name = "dead_link", .requests = 2000, .features = kDeadLink,
     .nonzero_stats = "link_failures"},
    {.name = "vault_fail", .requests = 2000, .features = kVaultFail,
     .nonzero_stats = "vault_failures"},
    {.name = "vault_fail_remap", .requests = 2000,
     .features = kVaultFail | kVaultRemap,
     .nonzero_stats = "vault_failures vault_remaps"},
    {.name = "scrub", .requests = 2000, .kind = Kind::Stream,
     .features = kScrub, .nonzero_stats = "scrub_corrections"},
    {.name = "mode_read_write", .requests = 2000, .kind = Kind::Trace,
     .seed = 0x30de5u, .features = kModeOps, .nonzero_stats = "mode_ops"},
    {.name = "cmc_posted", .requests = 2000, .features = kCmc,
     .nonzero_stats = "custom_ops"},
    {.name = "chaos_plan", .requests = 2000, .features = kChaos,
     .nonzero_stats = "link_crc_errors dram_sbes degraded_drops"},
};

/// The generic_ddr and pcm_like parameters, scaled to small_device()'s
/// 2-cycle bank busy window: ddr's row-cycle floor (tRAS) and precharge
/// paths all fire, and pcm's write gap gates issues mid-run.
inline DeviceConfig with_backend(DeviceConfig dc, TimingBackend backend) {
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

/// Fault rates orders of magnitude above realistic, so a few thousand
/// requests reach every RAS path: ECC corrections, uncorrectable
/// responses, vault failure and drain, link retries.
inline void ras_storm(DeviceConfig& dc) {
  dc.dram_sbe_rate_ppm = 20000;
  dc.dram_dbe_rate_ppm = 4000;
  dc.scrub_interval_cycles = 128;
  dc.vault_fail_threshold = 2;
  dc.link_protocol = true;
  dc.link_error_rate_ppm = 2000;
  dc.link_retry_limit = 3;
}

inline DeviceConfig scenario_device(const Scenario& s) {
  DeviceConfig dc = small_device();
  dc.num_links = s.links;
  if (s.has(kOpenPage)) {
    dc.row_policy = RowPolicy::OpenPage;
    dc.row_hit_cycles = 2;  // the defaults (6/22) scaled down
    dc.row_miss_cycles = 7;
  }
  if (s.has(kRefresh)) {
    dc.refresh_interval_cycles = 512;
    dc.refresh_busy_cycles = 8;
  }
  if (s.has(kDeepQueues)) dc.vault_depth = 16;
  if (s.has(kDrainLimit)) dc.vault_drain_limit = 2;
  if (s.has(kStrictFifo)) dc.vault_schedule = VaultSchedule::StrictFifo;
  if (s.has(kRasStorm)) ras_storm(dc);
  if (s.has(kUniformStorm | kBurstStorm | kRetrainStorm | kDeadLink)) {
    dc.link_protocol = true;
    dc.link_retry_limit = 8;
    dc.link_retry_latency = 4;
  }
  if (s.has(kUniformStorm)) dc.link_error_rate_ppm = 30000;
  if (s.has(kBurstStorm)) {
    dc.link_error_rate_ppm = 20000;
    dc.link_error_burst_len = 4;
  }
  if (s.has(kRetrainStorm)) {
    dc.link_error_rate_ppm = 10000;
    dc.link_stuck_interval_cycles = 512;
    dc.link_stuck_window_cycles = 32;
  }
  if (s.has(kDeadLink)) {
    dc.link_error_rate_ppm = 80000;
    dc.link_retry_limit = 1;
    dc.link_fail_threshold = 2;
  }
  if (s.has(kVaultFail)) {
    dc.dram_dbe_rate_ppm = 3000;
    dc.vault_fail_threshold = 1;
    dc.vault_remap = s.has(kVaultRemap);
  }
  if (s.has(kScrub)) {
    // The scrubber starts at address 0 and trails a stream's writes.
    dc.dram_sbe_rate_ppm = 30000;
    dc.scrub_interval_cycles = 32;
  }
  if (s.has(kChaos)) {
    // The plan's link actions need the protocol; the live invariant
    // checker runs beside it.
    dc.link_protocol = true;
    dc.link_retry_limit = 8;
    dc.chaos_invariants = 256;
  }
  return with_backend(dc, s.backend);
}

inline Topology scenario_topology(const Scenario& s, std::string* diag) {
  switch (s.topo) {
    case Topo::Simple:
      return make_simple(s.links, diag);
    case Topo::Chain3:
      return make_chain(3, s.links, /*host_links=*/2, /*trunk_links=*/2, diag);
    case Topo::Torus2x2:
      return make_torus2d(2, 2, s.links, /*host_links=*/2, diag);
  }
  return {};
}

/// The reserved encoding kCmc rows register: a posted 64-byte add of the
/// operand word.
inline constexpr u8 kCmcAdd64 = 0x04;

/// kChaos rows' plan: link errors, a dead link and a retrain, then a DRAM
/// storm that fails and wedges vaults, a quiet window, and a ramp.
inline constexpr const char* kChaosPlan =
    "at 20 link_error_ppm 20000\n"
    "at 30 link_burst 3\n"
    "at 40 kill_link 3\n"
    "at 160 revive_link 3\n"
    "at 60 link_retrain 1 24\n"
    "storm 80 200\n"
    "  dram_sbe_ppm 30000\n"
    "  dram_dbe_ppm 5000\n"
    "  vault_fail 2\n"
    "  wedge 5\n"
    "end\n"
    "quiet 220 260\n"
    "ramp 300 600 3 link_error_ppm 0 10000\n";

/// Bring up the row's machine on `dc` (scenario_device(), perhaps with an
/// execution knob changed): its topology, its CMC and its chaos plan.
inline Status build_sim(const Scenario& s, const DeviceConfig& dc,
                        Simulator& sim, std::string* diag) {
  Topology topo = scenario_topology(s, diag);
  if (topo.num_devices() == 0) return Status::InvalidConfig;
  SimConfig sc;
  sc.num_devices = topo.num_devices();
  sc.device = dc;
  Status st = sim.init(sc, std::move(topo), diag);
  if (ok(st) && s.has(kCmc)) {
    CustomCommandDef def;
    def.name = "P_ADD64";
    def.request_flits = 2;
    def.response_flits = 0;
    def.access_bytes = 64;
    def.handler = [](std::span<u64> memory, std::span<const u64> operand,
                     std::span<u64>) {
      for (u64& w : memory) w += operand[0];
    };
    st = sim.register_custom_command(kCmcAdd64, std::move(def));
  }
  if (ok(st) && s.has(kChaos)) {
    ChaosPlanParseResult plan = parse_chaos_plan_string(kChaosPlan);
    if (!plan.ok) return Status::InvalidConfig;
    st = sim.set_chaos_plan(plan.plan, diag);
  }
  return st;
}

/// 256 non-posted requests (four read sizes, three write sizes and
/// TWOADD8) at random 128-byte blocks below `capacity`.
inline std::vector<RequestDesc> mixed_trace(u64 capacity, u64 seed) {
  static constexpr Command kReads[] = {Command::Rd16, Command::Rd32,
                                       Command::Rd64, Command::Rd128};
  static constexpr Command kWrites[] = {Command::Wr16, Command::Wr64,
                                        Command::Wr128};
  SplitMix64 rng(seed);
  const u64 blocks = capacity / 128;
  std::vector<RequestDesc> reqs(256);
  for (RequestDesc& d : reqs) {
    d.addr = 128 * rng.next_below(blocks);
    const u64 pick = rng.next_below(8);
    d.cmd = pick < 4 ? kReads[pick] : pick < 7 ? kWrites[pick % 3]
                                               : Command::TwoAdd8;
  }
  return reqs;
}

inline std::unique_ptr<Generator> make_generator(const Scenario& s,
                                                 u64 capacity) {
  if (s.kind == Kind::Trace) {
    std::vector<RequestDesc> reqs = mixed_trace(capacity, s.seed);
    if (s.has(kModeOps)) {
      // Every fourth request is a register access: a MODE_READ of the live
      // RAS_SBE register, then a MODE_WRITE of GC, in turn.
      for (usize i = 3; i < reqs.size(); i += 4) {
        reqs[i] = i % 8 == 3 ? RequestDesc{Command::ModeRead,
                                           phys_from_reg(Reg::RasSbe)}
                             : RequestDesc{Command::ModeWrite,
                                           phys_from_reg(Reg::Gc)};
      }
    }
    return std::make_unique<TraceFileGenerator>(std::move(reqs));
  }
  GeneratorConfig gc;
  gc.capacity_bytes = capacity;
  gc.seed = static_cast<u32>(s.seed);
  gc.read_fraction = s.read_fraction;
  if (s.kind == Kind::Stream) return std::make_unique<StreamGenerator>(gc);
  return std::make_unique<RandomAccessGenerator>(gc);
}

/// With idle windows, injection stops for kIdleWindowCycles every
/// kIdleWindowEverySteps driver steps, so a fast-forward run enters and
/// leaves the skip path mid-traffic (every row's driver runs 100 steps or
/// more without the windows).
inline constexpr u64 kIdleWindowEverySteps = 48;
inline constexpr u32 kIdleWindowCycles = 300;
/// Every drive ends with this many idle cycles: more refresh and scrub
/// boundaries, and a long skip for fast-forward runs.
inline constexpr u32 kIdleTailCycles = 2000;

/// One run of a row on a machine build_sim() brought up, one simulated
/// cycle per advance(): driver steps (plus the row's CMC traffic) until
/// every request completes, then the idle tail.  The pacing is the same
/// whatever the execution strategy, so two runs can step in lockstep.
class RowRun {
 public:
  RowRun(const Scenario& s, Simulator& sim, bool idle_windows)
      : s_(s),
        sim_(sim),
        gen_(make_generator(s, sim.config().device.derived_capacity())),
        driver_(sim, *gen_, driver_config(s)),
        idle_windows_(idle_windows),
        cmc_rng_(s.seed) {
    sim.add_lifecycle_observer(life_);
  }

  /// Runs one cycle; false once the run is over.
  bool advance() {
    if (idle_left_ > 0) {
      --idle_left_;
      sim_.clock();
      return true;
    }
    if (!live_) return false;
    if (s_.has(kCmc) && steps_ % 4 == 0) send_cmc();
    live_ = driver_.step(result_);
    ++steps_;
    if (!live_) {
      driver_.finish(result_);
      idle_left_ = kIdleTailCycles;
    } else if (idle_windows_ && steps_ % kIdleWindowEverySteps == 0) {
      idle_left_ = kIdleWindowCycles;
      ++windows_;
    }
    return true;
  }

  void finish() {
    while (advance()) {}
  }

  /// True while the driver still has requests to send or await.
  [[nodiscard]] bool driving() const { return live_; }
  /// Idle windows opened while the driver was live.
  [[nodiscard]] u64 windows() const { return windows_; }
  [[nodiscard]] const DriverResult& result() const { return result_; }
  [[nodiscard]] const LifecycleSink& life() const { return *life_; }

  /// The run's observable outcome as text: the driver's counters and
  /// latency histogram, the lifecycle histograms, and every cube's nonzero
  /// counters.
  [[nodiscard]] std::string digest() const {
    std::ostringstream os;
    const DriverResult& r = result_;
    os << "row " << s_.name << "\ncycle " << sim_.now() << "\ndriver cycles "
       << r.cycles << " sent " << r.sent << " completed " << r.completed
       << " errors " << r.errors << "\ndriver send_stalls " << r.send_stalls
       << " timeouts " << r.timeouts << " retries " << r.retries
       << " abandoned " << r.abandoned << " hit_cycle_cap " << r.hit_cycle_cap
       << " watchdog_fired " << r.watchdog_fired << "\nlatency";
    append_hist(os, r.latency);
    os << "life completed " << life_->completed() << "\nlife conflicted "
       << life_->conflicted() << '\n';
    for (usize c = 0; c < kOpClassCount; ++c) {
      for (usize seg = 0; seg < kLifecycleSegmentCount; ++seg) {
        const LatencyStats& ls = life_->stats(
            static_cast<OpClass>(c), static_cast<LifecycleSegment>(seg));
        if (ls.count == 0) continue;
        os << "hist " << c << ' ' << seg;
        append_hist(os, ls);
      }
    }
    for (u32 d = 0; d < sim_.num_devices(); ++d) {
      os << "device " << d << '\n';
      for (const StatField& f : kStatFields) {
        const u64 v = sim_.stats(d).*f.member;
        if (v != 0) os << "stat " << f.name << ' ' << v << '\n';
      }
    }
    if (const ChaosEngine* chaos = sim_.chaos()) {
      os << "chaos applied " << chaos->events_applied() << " checks "
         << chaos->invariant_checks() << " violated " << sim_.chaos_violated()
         << '\n';
    }
    return std::move(os).str();
  }

 private:
  static DriverConfig driver_config(const Scenario& s) {
    DriverConfig dcfg;
    dcfg.total_requests = s.requests;
    dcfg.max_cycles = 400000;
    if (s.topo != Topo::Simple) dcfg.targets = TargetPolicy::RoundRobinCubes;
    return dcfg;
  }

  static void append_hist(std::ostream& os, const LatencyStats& ls) {
    os << ' ' << ls.count << ' ' << ls.sum << ' ' << ls.min << ' ' << ls.max
       << " |";
    for (usize b = 0; b < ls.log2_buckets.size(); ++b) {
      if (ls.log2_buckets[b] != 0) os << ' ' << b << ':' << ls.log2_buckets[b];
    }
    os << '\n';
  }

  /// One posted CMC on the first host port; a stalled one is dropped.
  void send_cmc() {
    const auto port = sim_.topology().host_ports().front();
    const u64 blocks = sim_.config().device.derived_capacity() / 64;
    const u64 operand[2] = {steps_, 0};
    PacketBuffer pkt;
    EXPECT_EQ(build_custom_request(sim_.custom_commands(), kCmcAdd64, 0,
                                   64 * cmc_rng_.next_below(blocks), 0,
                                   port.link, operand, pkt),
              Status::Ok);
    (void)sim_.send(port.dev, port.link, pkt);
  }

  const Scenario& s_;
  Simulator& sim_;
  std::unique_ptr<Generator> gen_;
  HostDriver driver_;
  std::shared_ptr<LifecycleSink> life_ = std::make_shared<LifecycleSink>();
  DriverResult result_;
  bool idle_windows_;
  bool live_{true};
  u64 steps_{0};
  u64 windows_{0};
  u32 idle_left_{0};
  SplitMix64 cmc_rng_;
};

}  // namespace hmcsim::test
