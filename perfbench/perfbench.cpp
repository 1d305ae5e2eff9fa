// perfbench: simulator speed on four fixed workloads, with a traced
// per-layer run and a behaviour digest.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--digest-dir DIR] [--write-digest] [--smoke] [--commit ID]
//
// One process, one host thread, sim_threads = 1.  A run repeats one
// *episode* — fresh simulator, generator and host loop, then a closed-loop
// drive of a fixed request count to completion — until --seconds have
// passed.  Every episode of a (workload, seed) simulates the identical
// machine, so each one must reproduce the same behaviour digest.
//
// --trace 0 drives episodes through HostDriver and prints the end-to-end
// metrics.  --trace 1 alternates HostDriver episodes with episodes driven by
// TracedHost, a copy of HostDriver's loop built from the same public calls
// with a span around each, and prints the per-layer metrics.  The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  perfbench/README.md lists every metric and workload.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/simulator.hpp"
#include "packet/packet.hpp"
#include "topo/topology.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

namespace hmcsim::perfbench {
namespace {

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- workloads ---------------------------------------------------------------

enum class Pattern : u8 { Random, Stream };

struct WorkloadSpec {
  const char* name;
  u32 devices;        ///< cubes; >1 builds make_chain(devices, 8, 2, 1)
  bool config_d;      ///< Table I config D (8 links, 16 banks), else A
  Pattern pattern;
  u32 request_bytes;
  bool model_data;
  bool link_protocol;
  u32 refresh_interval;  ///< 0 = no refresh (the paper's model)
  u32 refresh_busy;
  u32 tags_per_port;
  u32 idle_clocks;    ///< extra clocks after every drive step
  u64 requests;       ///< per episode
  u64 smoke_requests; ///< per episode under --smoke
};

// chain3_random64 keeps 64 tags per port: with the full 512, the 1024-deep
// host backlog behind the single trunk link makes tail latency chaotic in
// the seed (p99 from 127 to 710 cycles over 12 seeds), while 64 tags still
// saturate the trunk (the same simulated cycles within 1%).
constexpr WorkloadSpec kWorkloads[] = {
    {"d_random64", 1, true, Pattern::Random, 64, false, false, 0, 0, 512, 0,
     u64{1} << 18, 512},
    {"d_stream128", 1, true, Pattern::Stream, 128, true, false, 0, 0, 512, 0,
     u64{1} << 18, 512},
    {"chain3_random64", 3, true, Pattern::Random, 64, false, true, 0, 0, 64,
     0, u64{1} << 17, 512},
    {"sparse_gups", 1, false, Pattern::Random, 64, false, false, 2048, 4, 1,
     127, u64{1} << 13, 64},
};

constexpr u32 kWatchdogCycles = 1u << 16;

/// Counts draws so that requests the driver dropped unsent show up as
/// attempted-but-failed (HostDriver drops them silently).
class CountingGenerator final : public Generator {
 public:
  explicit CountingGenerator(std::unique_ptr<Generator> inner)
      : inner_(std::move(inner)) {}
  RequestDesc next() override {
    ++calls_;
    return inner_->next();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] u64 calls() const { return calls_; }

 private:
  std::unique_ptr<Generator> inner_;
  u64 calls_{0};
};

/// Everything one episode drives: built by setup(), consumed by a host loop.
struct Machine {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<CountingGenerator> gen;
  DriverConfig dcfg;
  std::unique_ptr<HostDriver> driver;  ///< null for traced episodes
};

SimConfig make_config(const WorkloadSpec& w, bool self_profile) {
  SimConfig c;
  c.num_devices = w.devices;
  c.device = w.config_d ? table1_config_8link_16bank()
                        : table1_config_4link_8bank();
  c.device.model_data = w.model_data;
  c.device.link_protocol = w.link_protocol;
  if (w.link_protocol) c.device.link_retry_limit = 8;
  if (w.refresh_interval != 0) {
    c.device.refresh_interval_cycles = w.refresh_interval;
    c.device.refresh_busy_cycles = w.refresh_busy;
  }
  c.device.watchdog_cycles = kWatchdogCycles;
  c.device.sim_threads = 1;
  c.device.self_profile = self_profile;
  return c;
}

/// The workload seed feeds only the generator (glibc-style LCG seed).
u32 generator_seed(u64 seed) {
  u64 z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<u32>(z) | 1u;
}

/// Config validation, Simulator::init, generator and host construction:
/// the work setup_s times.
bool setup(const WorkloadSpec& w, u64 requests, u64 seed, bool traced,
           Machine& m, std::string& diag) {
  const SimConfig config = make_config(w, traced);
  if (!ok(config.validate(&diag))) return false;
  Topology topo = w.devices == 1
                      ? make_simple(config.device.num_links, &diag)
                      : make_chain(w.devices, config.device.num_links, 2, 1,
                                   &diag);
  if (topo.num_devices() == 0) return false;
  m.sim = std::make_unique<Simulator>();
  if (!ok(m.sim->init(config, std::move(topo), &diag))) return false;

  GeneratorConfig gc;
  gc.capacity_bytes = config.device.derived_capacity();
  gc.request_bytes = w.request_bytes;
  gc.read_fraction = 0.5;
  gc.seed = generator_seed(seed);
  std::unique_ptr<Generator> inner;
  if (w.pattern == Pattern::Stream) {
    inner = std::make_unique<StreamGenerator>(gc);
  } else {
    inner = std::make_unique<RandomAccessGenerator>(gc);
  }
  m.gen = std::make_unique<CountingGenerator>(std::move(inner));

  m.dcfg = DriverConfig{};
  m.dcfg.total_requests = requests;
  m.dcfg.max_outstanding_per_port = w.tags_per_port;
  m.dcfg.policy = InjectionPolicy::RoundRobin;
  m.dcfg.targets = w.devices > 1 ? TargetPolicy::RoundRobinCubes
                                 : TargetPolicy::FixedCube;
  m.dcfg.max_cycles = requests * (w.idle_clocks + 1) * 256 + (u64{1} << 20);
  if (!traced) {
    m.driver = std::make_unique<HostDriver>(*m.sim, *m.gen, m.dcfg);
  }
  return true;
}

// ---- behaviour digest -----------------------------------------------------------

#define PERFBENCH_STATS_FIELDS(X)                                            \
  X(reads) X(writes) X(atomics) X(mode_ops) X(custom_ops) X(bytes_read)      \
  X(bytes_written) X(responses) X(error_responses) X(bank_conflicts)         \
  X(xbar_rqst_stalls) X(xbar_rsp_stalls) X(vault_rsp_stalls)                 \
  X(latency_penalties) X(route_hops) X(misroutes) X(link_errors)             \
  X(link_retries) X(link_crc_errors) X(link_seq_errors)                      \
  X(link_abort_entries) X(link_irtry_tx) X(link_irtry_rx) X(link_pret_tx)    \
  X(link_tret_tx) X(link_replayed_flits) X(link_token_stalls)                \
  X(link_retrain_cycles) X(link_failures) X(link_tokens_debited)             \
  X(link_tokens_returned) X(dram_sbes) X(dram_dbes) X(scrub_steps)           \
  X(scrub_corrections) X(scrub_uncorrectables) X(vault_failures)             \
  X(vault_remaps) X(degraded_drops) X(refreshes) X(row_hits) X(row_misses)   \
  X(pcm_write_throttle_stalls) X(sends) X(send_stalls) X(recvs)              \
  X(flow_packets)

/// CRC-32 (IEEE, reflected 0xEDB88320), kept independent of the
/// simulator's own CRC-32K so the digest does not trust the code it checks.
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

/// Text digest of one finished episode: the DriverResult counters and
/// latency histogram, every DeviceStats field of every cube, and (when
/// `with_checkpoint`) the size and CRC of a simulator checkpoint.
std::string digest(const Simulator& sim, const DriverResult& r,
                   bool with_checkpoint) {
  std::ostringstream os;
  os << "result.cycles " << r.cycles << "\nresult.sent " << r.sent
     << "\nresult.completed " << r.completed << "\nresult.errors "
     << r.errors << "\nresult.send_stalls " << r.send_stalls
     << "\nresult.timeouts " << r.timeouts << "\nresult.retries "
     << r.retries << "\nresult.abandoned " << r.abandoned
     << "\nresult.hit_cycle_cap " << r.hit_cycle_cap
     << "\nresult.watchdog_fired " << r.watchdog_fired
     << "\nlatency.count " << r.latency.count << "\nlatency.sum "
     << r.latency.sum << "\nlatency.min " << r.latency.min
     << "\nlatency.max " << r.latency.max << "\n";
  for (usize b = 0; b < r.latency.log2_buckets.size(); ++b) {
    if (r.latency.log2_buckets[b] != 0) {
      os << "latency.log2_bucket." << b << " " << r.latency.log2_buckets[b]
         << "\n";
    }
  }
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    const DeviceStats& s = sim.stats(d);
#define PERFBENCH_EMIT(f) os << "dev" << d << "." #f " " << s.f << "\n";
    PERFBENCH_STATS_FIELDS(PERFBENCH_EMIT)
#undef PERFBENCH_EMIT
  }
  if (with_checkpoint) {
    std::ostringstream ck;
    if (!ok(sim.save_checkpoint(ck))) {
      os << "checkpoint.error save_failed\n";
    } else {
      const std::string bytes = ck.str();
      char crc[16];
      std::snprintf(crc, sizeof crc, "%08x", crc32_ieee(bytes));
      os << "checkpoint.bytes " << bytes.size() << "\ncheckpoint.crc32 "
         << crc << "\n";
    }
  }
  return os.str();
}

// ---- traced host loop -----------------------------------------------------------

/// Per-layer span and count totals, summed over traced episodes.
struct LayerTotals {
  u64 wall_ns{0};
  u64 step_ns{0};        ///< spans around each drive-loop iteration
  u64 idle_clock_ns{0};  ///< clocks issued between iterations
  u64 finish_ns{0};
  u64 gen_ns{0}, gen_calls{0};
  u64 encode_ns{0}, encode_calls{0};
  u64 send_ns{0}, send_calls{0}, send_stalls{0};
  u64 recv_ns{0}, recv_calls{0}, recv_hits{0};
  u64 decode_ns{0};
  u64 step_clock_ns{0};  ///< clock() inside iterations
  u64 req_flits{0}, rsp_flits{0};
  u64 requests{0}, cycles{0}, cycles_skipped{0};
  u64 stage_ns[kProfileStageCount]{};
  u64 fast_cycles{0};
  DeviceStats stats{};
};

/// HostDriver's step()/finish() rebuilt from the same public calls, in the
/// same order and with the same tag and port policy (round-robin ports,
/// LIFO tag pools, fixed or round-robin cube targets, no host timeouts), so
/// it drives a bit-identical machine.  Every call into the simulator,
/// codec and generator carries a span.
class TracedHost {
 public:
  TracedHost(Simulator& sim, Generator& gen, const DriverConfig& cfg,
             LayerTotals& t)
      : sim_(sim), gen_(gen), cfg_(cfg), t_(t) {
    const u32 cap = std::min<u32>(cfg_.max_outstanding_per_port, 512);
    for (const auto& hp : sim_.topology().host_ports()) {
      Port port;
      port.dev = hp.dev;
      port.link = hp.link;
      for (u32 tag = 0; tag < cap; ++tag) {
        port.free_tags.push_back(static_cast<u16>(tag));
      }
      ports_.push_back(std::move(port));
    }
  }

  bool step(DriverResult& r) {
    if (ports_.empty() || r.completed >= cfg_.total_requests) return false;
    drain(r);
    inject(r);
    const u64 c0 = now_ns();
    sim_.clock();
    t_.step_clock_ns += now_ns() - c0;
    r.cycles = sim_.now();
    if (sim_.watchdog_fired()) {
      r.watchdog_fired = true;
      return false;
    }
    if (sim_.chaos_violated()) return false;
    if (cfg_.max_cycles != 0 && sim_.now() >= cfg_.max_cycles) {
      r.hit_cycle_cap = true;
      return false;
    }
    return r.completed < cfg_.total_requests;
  }

  void finish(DriverResult& r) {
    drain(r);
    r.cycles = sim_.now();
  }

  [[nodiscard]] u64 dropped() const { return dropped_; }

 private:
  struct Port {
    u32 dev{0};
    u32 link{0};
    std::vector<u16> free_tags;
    std::array<Cycle, 512> sent_at{};
    u32 outstanding{0};
  };

  void drain(DriverResult& r) {
    PacketBuffer pkt;
    for (Port& port : ports_) {
      for (;;) {
        const u64 t0 = now_ns();
        const Status st = sim_.recv(port.dev, port.link, pkt);
        const u64 t1 = now_ns();
        t_.recv_ns += t1 - t0;
        ++t_.recv_calls;
        if (!ok(st)) break;
        ++t_.recv_hits;
        t_.rsp_flits += pkt.flits;
        ResponseFields f;
        const Status ds = decode_response(pkt, f);
        t_.decode_ns += now_ns() - t1;
        if (!ok(ds)) continue;
        if (f.tag < port.sent_at.size() && port.outstanding > 0) {
          port.free_tags.push_back(f.tag);
          --port.outstanding;
          r.latency.add(sim_.now() - port.sent_at[f.tag]);
        }
        if (f.cmd == Command::Error) ++r.errors;
        ++r.completed;
      }
    }
  }

  Port* pick_port(u64 blocked, usize& index) {
    for (usize n = 0; n < ports_.size(); ++n) {
      const usize i = (rr_next_ + n) % ports_.size();
      if (!(blocked & (u64{1} << i)) && !ports_[i].free_tags.empty()) {
        index = i;
        rr_next_ = (i + 1) % ports_.size();
        return &ports_[i];
      }
    }
    return nullptr;
  }

  void inject(DriverResult& r) {
    u64 blocked = 0;
    const u64 all_blocked = (u64{1} << ports_.size()) - 1;
    while (blocked != all_blocked) {
      if (!have_pending_) {
        if (r.sent >= cfg_.total_requests) break;
        const u64 g0 = now_ns();
        pending_ = gen_.next();
        t_.gen_ns += now_ns() - g0;
        ++t_.gen_calls;
        pending_cub_ = cfg_.target_cub;
        if (cfg_.targets == TargetPolicy::RoundRobinCubes) {
          pending_cub_ = next_cube_;
          next_cube_ = (next_cube_ + 1) % sim_.num_devices();
        }
        have_pending_ = true;
      }
      usize index = 0;
      Port* port = pick_port(blocked, index);
      if (port == nullptr) break;

      const u16 tag = port->free_tags.back();
      PacketBuffer pkt;
      u64 payload[spec::kMaxPayloadBytes / 8] = {};
      const usize words = request_data_bytes(pending_.cmd) / 8;
      const u64 e0 = now_ns();
      const Status bs = build_memrequest(pending_cub_, pending_.addr, tag,
                                         pending_.cmd, port->link,
                                         {payload, words}, pkt);
      const u64 e1 = now_ns();
      t_.encode_ns += e1 - e0;
      ++t_.encode_calls;
      if (!ok(bs)) {
        have_pending_ = false;
        ++dropped_;
        continue;
      }
      const Status ss = sim_.send(port->dev, port->link, pkt);
      t_.send_ns += now_ns() - e1;
      ++t_.send_calls;
      if (ss == Status::Stalled) {
        ++t_.send_stalls;
        ++r.send_stalls;
        blocked |= u64{1} << index;
        continue;
      }
      if (!ok(ss)) {
        have_pending_ = false;
        ++dropped_;
        continue;
      }
      t_.req_flits += pkt.flits;
      port->free_tags.pop_back();
      port->sent_at[tag] = sim_.now();
      ++port->outstanding;
      ++r.sent;
      have_pending_ = false;
      if (is_posted(pending_.cmd)) ++r.completed;
    }
  }

  Simulator& sim_;
  Generator& gen_;
  DriverConfig cfg_;
  LayerTotals& t_;
  std::vector<Port> ports_;
  usize rr_next_{0};
  u32 next_cube_{0};
  bool have_pending_{false};
  RequestDesc pending_{};
  u32 pending_cub_{0};
  u64 dropped_{0};
};

// ---- step-time histogram --------------------------------------------------------

/// Host time per HostDriver::step(): 1 ns buckets below 1 ms, log2 buckets
/// above.  The buckets are written at construction, so the histogram's
/// resident size is fixed whatever the sample count.
class StepHistogram {
 public:
  StepHistogram() : fine_(kFine, 0) {}

  void add(u64 ns) {
    ++count_;
    if (ns < kFine) {
      ++fine_[ns];
    } else {
      ++coarse_[std::min<usize>(63 - __builtin_clzll(ns), coarse_.size() - 1)];
    }
  }

  [[nodiscard]] u64 count() const { return count_; }

  /// Value at quantile p (linear interpolation between adjacent ranks).
  [[nodiscard]] double quantile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p * static_cast<double>(count_ - 1);
    const u64 lo = static_cast<u64>(rank);
    const double frac = rank - static_cast<double>(lo);
    const double a = at_rank(lo);
    const double b = at_rank(std::min(lo + 1, count_ - 1));
    return a + frac * (b - a);
  }

 private:
  static constexpr u64 kFine = u64{1} << 20;

  [[nodiscard]] double at_rank(u64 rank) const {
    u64 seen = 0;
    for (u64 v = 0; v < kFine; ++v) {
      seen += fine_[v];
      if (seen > rank) return static_cast<double>(v);
    }
    for (usize b = 0; b < coarse_.size(); ++b) {
      seen += coarse_[b];
      if (seen > rank) return static_cast<double>(u64{1} << b);
    }
    return 0.0;
  }

  std::vector<u32> fine_;
  std::array<u64, 64> coarse_{};
  u64 count_{0};
};

// ---- episodes -----------------------------------------------------------------

struct Episode {
  Machine machine;
  DriverResult result;
  u64 drive_ns{0};
  u64 dropped{0};  ///< requests drawn but never sent
};

/// Drive one HostDriver episode; `hist` (optional) receives per-step times.
void drive_untraced(const WorkloadSpec& w, Episode& ep, StepHistogram* hist) {
  Simulator& sim = *ep.machine.sim;
  HostDriver& driver = *ep.machine.driver;
  DriverResult& r = ep.result;
  const u64 start = now_ns();
  bool live = true;
  while (live) {
    const u64 s0 = now_ns();
    live = driver.step(r);
    if (hist != nullptr) hist->add(now_ns() - s0);
    for (u32 i = 0; i < w.idle_clocks; ++i) sim.clock();
  }
  driver.finish(r);
  ep.drive_ns = now_ns() - start;
  ep.dropped = ep.machine.gen->calls() - r.sent;
}

/// Drive one TracedHost episode, adding its spans and counts to `t`.
void drive_traced(const WorkloadSpec& w, Episode& ep, LayerTotals& t) {
  Simulator& sim = *ep.machine.sim;
  TracedHost host(sim, *ep.machine.gen, ep.machine.dcfg, t);
  DriverResult& r = ep.result;
  const u64 start = now_ns();
  bool live = true;
  while (live) {
    const u64 s0 = now_ns();
    live = host.step(r);
    const u64 s1 = now_ns();
    t.step_ns += s1 - s0;
    if (w.idle_clocks != 0) {
      // One span over the whole idle window: per-clock spans would cost
      // more than the fast-forwarded clocks they time.
      for (u32 i = 0; i < w.idle_clocks; ++i) sim.clock();
      t.idle_clock_ns += now_ns() - s1;
    }
  }
  const u64 f0 = now_ns();
  host.finish(r);
  const u64 end = now_ns();
  t.finish_ns += end - f0;
  ep.drive_ns = end - start;
  t.wall_ns += ep.drive_ns;
  ep.dropped = host.dropped();

  sim.flush_observability();
  if (const StageProfiler* prof = sim.profiler()) {
    for (usize s = 0; s < kProfileStageCount; ++s) {
      t.stage_ns[s] += prof->stage_ns(static_cast<ProfileStage>(s));
    }
    t.fast_cycles += prof->fast_cycles();
  }
  t.requests += r.sent;
  t.cycles += sim.now();
  t.cycles_skipped += sim.cycles_skipped();
  t.stats += sim.total_stats();
}

/// Failures in one episode: ERROR responses, abandoned or unsent requests,
/// and requests that never completed.
u64 episode_failures(const Episode& ep, u64 requests) {
  const DriverResult& r = ep.result;
  const u64 missing = r.completed < requests ? requests - r.completed : 0;
  return r.errors + r.abandoned + ep.dropped + missing;
}

/// Why an episode's outcome is wrong, or "" when it is sound.
std::string episode_problem(const Episode& ep, u64 requests) {
  const DriverResult& r = ep.result;
  if (r.watchdog_fired) return "watchdog fired";
  if (r.hit_cycle_cap) return "hit the cycle cap";
  if (r.errors != 0) return std::to_string(r.errors) + " ERROR responses";
  if (r.abandoned != 0) return std::to_string(r.abandoned) + " abandoned";
  if (ep.dropped != 0) return std::to_string(ep.dropped) + " unsendable";
  if (r.sent != requests || r.completed != requests) {
    return "incomplete: sent " + std::to_string(r.sent) + ", completed " +
           std::to_string(r.completed) + " of " + std::to_string(requests);
  }
  if (!ep.machine.sim->quiescent()) return "simulator not quiescent";
  return "";
}

// ---- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string fmt_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  u64 seed{1};
  double seconds{10.0};
  int trace{0};
  std::string digest_dir;
  bool write_digest{false};
  bool smoke{false};
  std::string commit{"unknown"};
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--digest-dir DIR] [--write-digest] [--smoke] "
               "[--commit ID]\nworkloads:",
               argv0);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--write-digest") {
      a.write_digest = true;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      a.workload = argv[++i];
    } else if (arg == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      a.trace = std::atoi(argv[++i]);
    } else if (arg == "--digest-dir") {
      a.digest_dir = argv[++i];
    } else if (arg == "--commit") {
      a.commit = argv[++i];
    } else {
      return false;
    }
  }
  return !a.workload.empty() && (a.trace == 0 || a.trace == 1) &&
         a.seconds > 0.0;
}

/// Check (or with --write-digest, record) the committed digest for this
/// (workload, seed).  Returns "" when it matches or none is committed.
std::string check_committed_digest(const Args& a, u64 requests,
                                   const std::string& body, bool& compared) {
  compared = false;
  if (a.digest_dir.empty() || a.smoke) return "";
  const std::string text = "workload " + a.workload + "\nseed " +
                           std::to_string(a.seed) + "\nrequests " +
                           std::to_string(requests) + "\n" + body;
  const std::string path = a.digest_dir + "/" + a.workload + ".seed" +
                           std::to_string(a.seed) + ".txt";
  if (a.write_digest) {
    std::ofstream out(path);
    out << text;
    if (!out) return "cannot write " + path;
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return "";
  }
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream want;
  want << in.rdbuf();
  compared = true;
  if (want.str() == text) return "";
  // Name the first differing line so a behaviour change is legible.
  std::istringstream ws(want.str()), gs(text);
  std::string wl, gl;
  while (true) {
    const bool wok = static_cast<bool>(std::getline(ws, wl));
    const bool gok = static_cast<bool>(std::getline(gs, gl));
    if (!wok && !gok) break;
    if (!wok || !gok || wl != gl) {
      return "digest mismatch vs " + path + ": want '" + (wok ? wl : "") +
             "', got '" + (gok ? gl : "") + "'";
    }
  }
  return "digest mismatch vs " + path;
}

int run_main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage(argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (a.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    usage(argv[0]);
    return 2;
  }
  const WorkloadSpec& w = *spec;
  const u64 requests = a.smoke ? w.smoke_requests : w.requests;
  const bool traced_mode = a.trace == 1;

  std::vector<std::string> problems;
  const auto note = [&problems](const std::string& what, const std::string& p) {
    if (!p.empty()) problems.push_back(what + ": " + p);
  };

  auto new_episode = [&](bool traced, double* setup_s) {
    auto ep = std::make_unique<Episode>();
    std::string diag;
    const u64 t0 = now_ns();
    const bool built = setup(w, requests, a.seed, traced, ep->machine, diag);
    if (setup_s != nullptr) *setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (!built) {
      std::fprintf(stderr, "setup failed: %s\n", diag.c_str());
      std::exit(1);
    }
    return ep;
  };

  // Warm-up episodes: untimed, and the reference every later episode of
  // this run must reproduce.  At most one simulator per host loop is alive
  // at a time, so peak_rss_mb is one machine's footprint.
  LayerTotals warm_totals;
  std::string ref_digest, ref_light;
  {
    auto ref = new_episode(false, nullptr);
    drive_untraced(w, *ref, nullptr);
    note("reference episode", episode_problem(*ref, requests));
    ref_digest = digest(*ref->machine.sim, ref->result, true);
    ref_light = digest(*ref->machine.sim, ref->result, false);
  }
  if (traced_mode) {
    auto tr = new_episode(true, nullptr);
    drive_traced(w, *tr, warm_totals);
    note("traced reference episode", episode_problem(*tr, requests));
    if (digest(*tr->machine.sim, tr->result, true) != ref_digest) {
      note("traced run", "digest differs from the untraced run");
    }
  }

  // Timed phase.
  StepHistogram hist;
  LayerTotals totals;
  std::vector<double> setup_times;
  u64 untraced_ns = 0, traced_ns = 0, completed = 0, cycles = 0;
  u64 attempted = 0, failed = 0, episodes = 0;
  std::unique_ptr<Episode> last_untraced, last_traced;
  const u64 budget_ns = static_cast<u64>(a.seconds * 1e9);
  const u64 phase_start = now_ns();
  constexpr u64 kMinEpisodes = 3;
  while (episodes < kMinEpisodes || now_ns() - phase_start < budget_ns) {
    double setup_s = 0.0;
    last_untraced.reset();
    auto ep = new_episode(false, &setup_s);
    setup_times.push_back(setup_s);
    drive_untraced(w, *ep, traced_mode ? nullptr : &hist);
    untraced_ns += ep->drive_ns;
    completed += ep->result.completed;
    cycles += ep->result.cycles;
    attempted += ep->machine.gen->calls();
    failed += episode_failures(*ep, requests);
    note("episode", episode_problem(*ep, requests));
    if (digest(*ep->machine.sim, ep->result, false) != ref_light) {
      note("episode", "digest differs from the reference episode");
    }
    last_untraced = std::move(ep);
    if (traced_mode) {
      last_traced.reset();
      auto tr = new_episode(true, nullptr);
      drive_traced(w, *tr, totals);
      traced_ns += tr->drive_ns;
      attempted += tr->machine.gen->calls();
      failed += episode_failures(*tr, requests);
      note("traced episode", episode_problem(*tr, requests));
      if (digest(*tr->machine.sim, tr->result, false) != ref_light) {
        note("traced episode", "digest differs from the reference episode");
      }
      last_traced = std::move(tr);
    }
    ++episodes;
  }

  // The behaviour digest: the last timed episode, checkpoint included.
  const std::string final_digest =
      digest(*last_untraced->machine.sim, last_untraced->result, true);
  if (final_digest != ref_digest) {
    note("final episode", "checkpoint digest differs from the reference");
  }
  if (last_traced &&
      digest(*last_traced->machine.sim, last_traced->result, true) !=
          final_digest) {
    note("traced run", "checkpoint digest differs from the untraced run");
  }
  bool compared = false;
  note("committed digest",
       check_committed_digest(a, requests, final_digest, compared));

  std::vector<Metric> metrics;
  const double req_d = static_cast<double>(totals.requests);
  const double cyc_d = static_cast<double>(totals.cycles);
  if (!traced_mode) {
    const double secs = static_cast<double>(untraced_ns) * 1e-9;
    const DriverResult& r = last_untraced->result;
    const u64 bad = r.errors + r.abandoned + last_untraced->dropped;
    metrics = {
        {"req_per_s", per(static_cast<double>(completed), secs), "req/s"},
        {"cycles_per_s", per(static_cast<double>(cycles), secs), "cyc/s"},
        {"step_us_p50", hist.quantile(0.50) * 1e-3, "us"},
        {"step_us_p99", hist.quantile(0.99) * 1e-3, "us"},
        {"setup_s", median(setup_times), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_cycles", static_cast<double>(r.cycles), "cycles"},
        {"sim_lat_mean_cyc", r.latency.mean(), "cycles"},
        {"sim_lat_p99_cyc", static_cast<double>(r.latency.percentile(0.99)),
         "cycles"},
        {"ok_frac",
         1.0 - per(static_cast<double>(bad),
                   static_cast<double>(last_untraced->machine.gen->calls())),
         "ratio"},
    };
  } else {
    const LayerTotals& t = totals;
    const double children = static_cast<double>(
        t.gen_ns + t.encode_ns + t.send_ns + t.recv_ns + t.decode_ns +
        t.step_clock_ns);
    const double clock_ns =
        static_cast<double>(t.step_clock_ns + t.idle_clock_ns);
    u64 profiled = 0;
    for (const u64 ns : t.stage_ns) profiled += ns;
    const double wall = static_cast<double>(t.wall_ns);
    const double spans =
        static_cast<double>(t.step_ns + t.idle_clock_ns + t.finish_ns);
    const auto stage = [&t](ProfileStage s) {
      return static_cast<double>(t.stage_ns[static_cast<usize>(s)]);
    };
    const auto stat = [req_d](u64 v) {
      return per(static_cast<double>(v), req_d);
    };
    metrics = {
        {"workload.gen_ns_per_req", per(static_cast<double>(t.gen_ns), req_d),
         "ns"},
        {"workload.driver_self_ns_per_cycle",
         per(static_cast<double>(t.step_ns) - children, cyc_d), "ns"},
        {"workload.send_attempts_per_req", stat(t.send_calls), "count"},
        {"packet.encode_ns_per_req",
         per(static_cast<double>(t.encode_ns), req_d), "ns"},
        {"packet.decode_ns_per_rsp",
         per(static_cast<double>(t.decode_ns),
             static_cast<double>(t.recv_hits)),
         "ns"},
        {"packet.flits_per_req", stat(t.req_flits + t.rsp_flits), "count"},
        {"core.send_ns_per_call",
         per(static_cast<double>(t.send_ns), static_cast<double>(t.send_calls)),
         "ns"},
        {"core.send_stall_frac",
         per(static_cast<double>(t.send_stalls),
             static_cast<double>(t.send_calls)),
         "ratio"},
        {"core.recv_ns_per_call",
         per(static_cast<double>(t.recv_ns), static_cast<double>(t.recv_calls)),
         "ns"},
        {"core.recv_hit_frac",
         per(static_cast<double>(t.recv_hits),
             static_cast<double>(t.recv_calls)),
         "ratio"},
        {"core.clock_ns_per_cycle", per(clock_ns, cyc_d), "ns"},
        {"core.stage1_xbar_ns_per_cycle",
         per(stage(ProfileStage::Stage1Xbar), cyc_d), "ns"},
        {"core.stage2_xbar_ns_per_cycle",
         per(stage(ProfileStage::Stage2RootXbar), cyc_d), "ns"},
        {"core.stage34_vault_ns_per_cycle",
         per(stage(ProfileStage::Stage34Vaults), cyc_d), "ns"},
        {"core.stage5_rsp_ns_per_cycle",
         per(stage(ProfileStage::Stage5Responses), cyc_d), "ns"},
        {"core.stage6_ns_per_cycle", per(stage(ProfileStage::Stage6Clock), cyc_d),
         "ns"},
        {"core.clock_unprofiled_ns_per_cycle",
         per(clock_ns - static_cast<double>(profiled), cyc_d), "ns"},
        {"core.ff_ns_per_cycle", per(stage(ProfileStage::FastForward), cyc_d),
         "ns"},
        {"core.ff_ns_per_fast_cycle",
         per(stage(ProfileStage::FastForward),
             static_cast<double>(t.fast_cycles)),
         "ns"},
        {"core.ff_skip_frac",
         per(static_cast<double>(t.cycles_skipped), cyc_d), "ratio"},
        {"core.bank_conflicts_per_req", stat(t.stats.bank_conflicts), "count"},
        {"core.xbar_stalls_per_req",
         stat(t.stats.xbar_rqst_stalls + t.stats.xbar_rsp_stalls), "count"},
        {"core.vault_rsp_stalls_per_req", stat(t.stats.vault_rsp_stalls),
         "count"},
        {"topo.route_hops_per_req", stat(t.stats.route_hops), "count"},
        {"link.token_stalls_per_req", stat(t.stats.link_token_stalls),
         "count"},
        {"mem.data_bytes_per_req",
         stat(t.stats.bytes_read + t.stats.bytes_written), "B"},
        {"trace.unattributed_frac", per(wall - spans, wall), "ratio"},
        {"trace.overhead_frac",
         per(static_cast<double>(traced_ns), static_cast<double>(untraced_ns)) -
             1.0,
         "ratio"},
    };
  }

  // Human-readable context and summary; the JSON result is the last line.
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"sim_threads\": %u, \"requests_per_episode\": "
      "%llu, \"episodes\": %llu, \"step_samples\": %llu, "
      "\"digest_compared\": %s}\n",
      w.name, static_cast<unsigned long long>(a.seed), a.trace,
      std::thread::hardware_concurrency(), json_escape(PERFBENCH_COMPILER).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(a.commit).c_str(),
      last_untraced->machine.sim->sim_threads(),
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(episodes),
      static_cast<unsigned long long>(hist.count()),
      compared ? "true" : "false");
  for (const std::string& p : problems) std::printf("FAIL %s\n", p.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::string out = "{\"correct\": ";
  out += problems.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<u64>(attempted, 1));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (usize i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           fmt_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace hmcsim::perfbench

int main(int argc, char** argv) {
  return hmcsim::perfbench::run_main(argc, argv);
}
