// Feature-cost ledger: what each optional subsystem costs the simulator,
// all measured one way.
//
// Each row of kRows is one feature: an edit of the base config, the modes
// that compare it (each a live simulator that persists across episodes),
// the gates its costs must meet and the checks that prove the measured
// work was real.  The base is Table I config A running the paper's
// §VI.A harness (64 B random, 50% reads) with model_data off unless the
// row says otherwise.  One loop runs every row: an untimed warmup episode
// per mode, then `reps` interleaved rounds that run one episode on every
// mode and keep each mode's best rate.  Interleaving puts frequency
// scaling and scheduler drift on all modes alike and best-of drops the
// rest, so a gap that survives is systematic cost.  A row that brackets
// its feature with two base runs (off ... off_rerun) gates the gap
// between them: what the feature costs by merely existing.
//
//   build/bench/bench_overhead [--json <path|->]
//
// Scale knobs (env), each overriding every row's default when set:
// HMCSIM_OVERHEAD_REQUESTS (requests per episode; idle modes clock 16
// cycles per request) and HMCSIM_OVERHEAD_REPS (interleaved rounds).
//
// Exit status: 0 every check and gate passed; 1 a validity check failed
// or the JSON could not be written; 2 usage error; 3 only timing gates
// missed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.hpp"
#include "trace/lifecycle.hpp"
#include "trace/series.hpp"
#include "trace/sink.hpp"

namespace hmcsim::bench {
namespace {

namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

struct Lane;
using Edit = std::function<void(DeviceConfig&)>;
using Arm = std::function<void(Lane&)>;
/// One episode of `n` requests' worth of work; returns the work done, in
/// the lane's unit.
using Episode = std::function<u64(Lane&, u64 n)>;

u64 burst(Lane& l, u64 n);

/// One mode's live simulator and what the loop measured on it.
struct Lane {
  std::string name;
  Simulator sim;
  RandomAccessGenerator gen;
  DriverConfig driver;  ///< total_requests is set per episode
  u64 n{0};             ///< requests per episode
  const char* unit{"req"};
  Episode episode{burst};
  /// Runs after every drive-loop step of a burst; may be empty.
  std::function<void(Lane&, HostDriver&, const DriverResult&)> on_step;
  Arm collect;  ///< after the loop: records the mode's facts
  u64 requested{0};
  u64 completed{0};
  u64 errors{0};
  double best{0.0};  ///< best episode rate, `unit`s per second
  DeviceStats stats;
  std::vector<std::pair<std::string, double>> facts;

  explicit Lane(std::string name_, const DeviceConfig& dc)
      : name(std::move(name_)), sim(init_or_die(dc)), gen([&] {
          GeneratorConfig gc;
          gc.capacity_bytes = dc.derived_capacity();
          return gc;
        }()) {}

  void note(std::string key, double value) {
    facts.emplace_back(std::move(key), value);
  }
  double fact(const std::string& key) const {
    for (const auto& [k, v] : facts) {
      if (k == key) return v;
    }
    std::fprintf(stderr, "%s: no fact '%s'\n", name.c_str(), key.c_str());
    std::exit(1);
  }
};

struct Mode {
  const char* name;
  Edit device{};    ///< on top of the row's base; empty = the base
  Arm arm{};        ///< after init: sinks, driver, episode; may be empty
  u64 requests{0};  ///< per episode; 0 = the row's count
};

/// The measured lanes of one row.
struct RowRun {
  std::vector<std::unique_ptr<Lane>> lanes;

  const Lane& operator[](const std::string& name) const {
    for (const auto& l : lanes) {
      if (l->name == name) return *l;
    }
    std::fprintf(stderr, "no mode '%s'\n", name.c_str());
    std::exit(1);
  }
  /// The first mode's rate, averaged with off_rerun's when it has one.
  double base_rate() const {
    for (const auto& l : lanes) {
      if (l->name == "off_rerun") return 0.5 * (lanes[0]->best + l->best);
    }
    return lanes[0]->best;
  }
};

/// A figure the row reports; with a limit it is a timing gate.
struct Gate {
  std::string name;
  std::function<double(const RowRun&)> value;
  std::optional<double> limit{};  ///< none: reported only
  bool at_least{false};           ///< pass when value >= limit (else <)
};

bool passes(const Gate& g, double v) {
  return !g.limit || (g.at_least ? v >= *g.limit : v < *g.limit);
}

struct Check {
  const char* what;
  std::function<bool(const RowRun&)> holds;
};

struct Row {
  const char* name;
  u64 requests;
  u64 reps;
  Edit base;
  std::vector<Mode> modes;
  std::vector<Gate> gates;
  std::vector<Check> checks;
};

// ---- episodes ---------------------------------------------------------------

void account(Lane& l, u64 n, const DriverResult& r) {
  l.requested += n;
  l.completed += r.completed;
  l.errors += r.errors;
}

/// The §VI.A random-access burst under the lane's driver settings.
u64 burst(Lane& l, u64 n) {
  DriverConfig dcfg = l.driver;
  dcfg.total_requests = n;
  HostDriver driver(l.sim, l.gen, dcfg);
  DriverResult r;
  while (driver.step(r)) {
    if (l.on_step) l.on_step(l, driver, r);
  }
  driver.finish(r);
  account(l, n, r);
  return r.completed;
}

/// Idle-cycle floor: clock the empty device.
u64 idle(Lane& l, u64 n) {
  for (u64 i = 0; i < 16 * n; ++i) l.sim.clock();
  return 16 * n;
}

/// GUPS-style sparse updates: one tag per port, one drive-loop step, then
/// 127 clocks with nothing in flight (~1% link occupancy).
u64 sparse_gups(Lane& l, u64 n) {
  const Cycle start = l.sim.now();
  DriverConfig dcfg = l.driver;
  dcfg.total_requests = n;
  dcfg.max_outstanding_per_port = 1;
  HostDriver driver(l.sim, l.gen, dcfg);
  DriverResult r;
  bool live = true;
  while (live) {
    live = driver.step(r);
    for (u32 i = 0; i < 127; ++i) l.sim.clock();
  }
  driver.finish(r);
  account(l, n, r);
  return l.sim.now() - start;
}

/// Phased traffic: six saturating bursts, each followed by a 65536-cycle
/// idle gap.  Fast-forward helps only in the gaps.
u64 bursty(Lane& l, u64 n) {
  const Cycle start = l.sim.now();
  for (int b = 0; b < 6; ++b) {
    (void)burst(l, n);
    for (u32 i = 0; i < 65536; ++i) l.sim.clock();
  }
  return l.sim.now() - start;
}

void die(const std::string& what) {
  std::fprintf(stderr, "bench_overhead: %s\n", what.c_str());
  std::exit(1);
}

void save_or_die(const Simulator& sim, const fs::path& path,
                 std::string_view host_state = {}) {
  CheckpointError err;
  if (!ok(sim.save_checkpoint_file(path.string(), &err, host_state))) {
    die("checkpoint write failed: " + err.message());
  }
}

const fs::path& scratch_dir() {
  static const fs::path dir = [] {
    fs::path d = fs::temp_directory_path() /
                 ("hmcsim_overhead_" + std::to_string(::getpid()));
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

/// The hmcsim_run drive loop with auto-checkpointing, its cadence tied to
/// the episode so every episode pays for the same save: one rotated
/// generation (keep 3) once half its requests have completed, about every
/// 9000 cycles at the row's size.
void arm_autosave(Lane& l) {
  const fs::path dir = scratch_dir() / "auto";
  fs::create_directories(dir);
  struct Saves {
    u64 episodes{0};
    u64 written{0};
    u64 half{0};  ///< this episode's completions before its save
    bool saved{false};
  };
  auto saves = std::make_shared<Saves>();
  l.episode = [saves](Lane& lane, u64 n) {
    ++saves->episodes;
    saves->half = n / 2;
    saves->saved = false;
    return burst(lane, n);
  };
  l.on_step = [dir, saves](Lane& lane, HostDriver& driver,
                           const DriverResult& r) {
    if (saves->saved || r.completed < saves->half) return;
    save_or_die(lane.sim,
                checkpoint_generation_path(dir.string(), saves->written++),
                save_host_state(driver, r));
    prune_checkpoint_generations(dir.string(), 3);
    saves->saved = true;
  };
  l.collect = [saves](Lane& lane) {
    lane.note("episodes", saves->episodes);
    lane.note("generations", saves->written);
  };
}

/// Checkpoint save and restore, one per episode, on a device loaded with
/// 8192 requests.  Every save writes a new file, as a rotated generation
/// does: re-saving over one path measured ~50 ms on ext4 against ~1 ms for
/// a new path, which would time the filesystem rather than the save.
void arm_save(Lane& l) {
  (void)burst(l, 8192);
  auto saves = std::make_shared<u64>(0);
  l.unit = "op";
  l.episode = [saves](Lane& lane, u64) -> u64 {
    const std::string name = "save" + std::to_string((*saves)++);
    save_or_die(lane.sim, scratch_dir() / name);
    return 1;
  };
  l.collect = [](Lane& lane) {
    lane.note("checkpoint_bytes",
              static_cast<double>(fs::file_size(scratch_dir() / "save0")));
  };
}

void arm_restore(Lane& l) {
  (void)burst(l, 8192);
  const fs::path path = scratch_dir() / "restore";
  save_or_die(l.sim, path);
  l.unit = "op";
  l.episode = [path](Lane&, u64) -> u64 {
    Simulator restored;
    CheckpointError err;
    if (!ok(restored.restore_checkpoint_file(path.string(), &err))) {
      die("restore failed: " + err.message());
    }
    return 1;
  };
}

// ---- gates and checks -------------------------------------------------------

/// Percentage gap of the slower run below the faster one.
double pct_gap(double a, double b) {
  const double hi = std::max(a, b);
  return hi > 0.0 ? 100.0 * (hi - std::min(a, b)) / hi : 0.0;
}

/// The two base runs bracket the feature: a systematic cost of its mere
/// existence repeats instead of averaging out.
Gate off_gap(double limit) {
  return {"off_gap_pct",
          [](const RowRun& r) {
            return pct_gap(r["off"].best, r["off_rerun"].best);
          },
          limit};
}

/// Slowdown of `mode` against `base` (default: the row's base rate).
Gate overhead(std::string mode, std::optional<double> limit = {},
              std::string base = "") {
  return {mode + "_overhead_pct",
          [mode, base](const RowRun& r) {
            const double b = base.empty() ? r.base_rate() : r[base].best;
            return 100.0 * (b / r[mode].best - 1.0);
          },
          limit};
}

Gate speedup(std::string on, std::string off,
             std::optional<double> floor = {}) {
  return {on + "_speedup",
          [on, off](const RowRun& r) { return r[on].best / r[off].best; },
          floor, true};
}

// ---- mode edits and arms ----------------------------------------------------

Edit link_protocol(u32 error_ppm) {
  return [error_ppm](DeviceConfig& dc) {
    dc.link_protocol = true;
    dc.link_retry_limit = 8;
    dc.link_retry_latency = 4;
    dc.link_error_rate_ppm = error_ppm;
  };
}

void record_link(Lane& l) {
  l.collect = [](Lane& lane) {
    lane.note("link_tokens_debited", lane.stats.link_tokens_debited);
    lane.note("link_abort_entries", lane.stats.link_abort_entries);
    lane.note("link_retries", lane.stats.link_retries);
  };
}

void all_observability(DeviceConfig& dc) {
  dc.self_profile = true;
  dc.telemetry_interval_cycles = 64;
  dc.flight_recorder_depth = 256;
}

void record_observability(Lane& l) {
  l.collect = [](Lane& lane) {
    Simulator& sim = lane.sim;
    sim.flush_observability();
    u64 events = 0;
    for (u32 d = 0; d < sim.flight_recorder()->num_devices(); ++d) {
      events += sim.flight_recorder()->recorded(d);
    }
    lane.note("sample_passes", sim.telemetry()->rows().size());
    lane.note("profiled_cycles",
              sim.profiler()->staged_cycles() + sim.profiler()->fast_cycles());
    lane.note("flight_events", events);
  };
}

/// A sink attached at TraceLevel::Off: every gate branch is taken.
void gated_sink(Lane& l) {
  auto sink = std::make_shared<CountingSink>();
  l.sim.tracer().add_sink(sink);
  l.sim.tracer().set_level(TraceLevel::Off);
  l.collect = [sink](Lane& lane) { lane.note("records", sink->total()); };
}

void lifecycle_sink(Lane& l) {
  auto sink = std::make_shared<LifecycleSink>();
  l.sim.add_lifecycle_observer(sink);
  l.collect = [sink](Lane& lane) {
    lane.note("lifecycle_completed", sink->completed());
  };
}

/// Events-level tracing into the Figure 5 aggregator.
void events_sink(Lane& l) {
  l.sim.tracer().set_level(TraceLevel::Events);
  l.sim.tracer().add_sink(std::make_shared<VaultSeriesSink>(
      l.sim.config().device.num_vaults(), 256));
}

/// RAS levels: 1 ECC with planted flips, 2 plus scrubbing, 3 plus an armed
/// vault-failure threshold with remap and the watchdog.
Edit ras(int level) {
  return [level](DeviceConfig& dc) {
    dc.dram_sbe_rate_ppm = 10'000;  // ~1% of accesses plant a latent flip
    dc.dram_dbe_rate_ppm = 100;
    if (level >= 2) {
      dc.scrub_interval_cycles = 64;
      dc.scrub_window_bytes = 1 << 20;
    }
    if (level >= 3) {
      dc.vault_fail_threshold = 1'000'000;  // armed but never tripping
      dc.vault_remap = true;
      dc.watchdog_cycles = 100'000;
    }
  };
}

/// A generous host timeout that never trips: bookkeeping cost alone.
void timeout_armed(Lane& l) {
  l.driver.response_timeout_cycles = 1'000'000;
  l.driver.retry_limit = 4;
  l.driver.retry_backoff_cycles = 16;
}

void record_chaos(Lane& l) {
  l.collect = [](Lane& lane) {
    if (lane.sim.chaos_violated()) {
      std::fprintf(stderr, "%s\n", lane.sim.chaos_report().c_str());
    }
    lane.note("invariant_checks", lane.sim.chaos()->invariant_checks());
    lane.note("violated", lane.sim.chaos_violated() ? 1.0 : 0.0);
  };
}

Edit backend(TimingBackend b) {
  return [b](DeviceConfig& dc) {
    dc.timing_backend = b;
    if (b == TimingBackend::PcmLike) dc.pcm_write_gap_cycles = 8;
  };
}

Edit fast_forward(bool on) {
  return [on](DeviceConfig& dc) { dc.fast_forward = on; };
}

Arm episode(Episode e, const char* unit) {
  return [e, unit](Lane& l) {
    l.episode = e;
    l.unit = unit;
  };
}

// ---- the table --------------------------------------------------------------

const std::vector<Row>& rows() {
  static const std::vector<Row> kRows = {
      {"link_protocol", 1 << 15, 3, {},
       {{"off"},
        {"clean", link_protocol(0), record_link},
        {"storm", link_protocol(20'000), record_link},
        {"off_rerun"}},
       {off_gap(10.0), overhead("clean"), overhead("storm")},
       {{"clean debits tokens with 0 errors",
         [](const RowRun& r) {
           return r["clean"].fact("link_tokens_debited") > 0 &&
                  r["clean"].errors == 0;
         }},
        {"storm has aborts and retries", [](const RowRun& r) {
           return r["storm"].fact("link_abort_entries") > 0 &&
                  r["storm"].fact("link_retries") > 0;
         }}}},

      {"observability", 1 << 15, 5, {},
       {{"off"},
        {"all_on", all_observability, record_observability},
        {"off_rerun"}},
       {off_gap(2.0), overhead("all_on", 10.0)},
       {{"sample passes, profiled cycles and flight events > 0",
         [](const RowRun& r) {
           const Lane& on = r["all_on"];
           return on.fact("sample_passes") > 0 &&
                  on.fact("profiled_cycles") > 0 &&
                  on.fact("flight_events") > 0;
         }}}},

      {"tracing", 1 << 16, 3, {},
       {{"off"},
        {"gated", {}, gated_sink},
        {"lifecycle", {}, lifecycle_sink},
        {"events", {}, events_sink}},
       {overhead("gated", 50.0), overhead("lifecycle", 50.0),
        overhead("events")},
       {{"no record passes TraceLevel::Off",
         [](const RowRun& r) { return r["gated"].fact("records") == 0; }},
        {"lifecycle count equals retired count", [](const RowRun& r) {
           const Lane& l = r["lifecycle"];
           return l.fact("lifecycle_completed") ==
                  static_cast<double>(l.completed);
         }}}},

      {"ras", 1 << 14, 5,
       // ECC decode exists only for modeled data; on for every mode.
       [](DeviceConfig& dc) { dc.model_data = true; },
       {{"off"},
        {"ecc", ras(1)},
        {"ecc+scrub", ras(2)},
        {"ecc+scrub+watchdog", ras(3)},
        {"idle_off", {}, episode(idle, "cyc")},
        {"idle_full", ras(3), episode(idle, "cyc")}},
       {overhead("ecc"), overhead("ecc+scrub"), overhead("ecc+scrub+watchdog"),
        overhead("idle_full", {}, "idle_off")},
       {}},

      {"host_timeout", 1 << 14, 5, {},
       {{"off"}, {"armed", {}, timeout_armed}},
       {overhead("armed")},
       {}},

      {"chaos", 1 << 15, 5,
       // The link protocol turns on the token-conservation identities, so
       // a checker pass walks the full suite.
       [](DeviceConfig& dc) {
         dc.link_protocol = true;
         dc.link_retry_limit = 8;
       },
       {{"off"},
        {"checker_on", [](DeviceConfig& dc) { dc.chaos_invariants = 1024; },
         record_chaos},
        {"off_rerun"}},
       {off_gap(2.0), overhead("checker_on", 5.0)},
       {{"checks ran",
         [](const RowRun& r) {
           return r["checker_on"].fact("invariant_checks") > 0;
         }},
        {"no violation", [](const RowRun& r) {
           return r["checker_on"].fact("violated") == 0;
         }}}},

      {"checkpoint", 1 << 16, 25, {},
       {{"off"},
        {"ckpt_episode", {}, arm_autosave},
        {"off_rerun"},
        {"save", {}, arm_save},
        {"restore", {}, arm_restore}},
       {off_gap(2.0), overhead("ckpt_episode", 5.0)},
       {{"every episode writes one generation", [](const RowRun& r) {
           const Lane& l = r["ckpt_episode"];
           return l.fact("generations") == l.fact("episodes");
         }}}},

      {"backend", 1 << 16, 15, {},
       {{"hmc_dram", backend(TimingBackend::HmcDram)},
        {"generic_ddr", backend(TimingBackend::GenericDdr)},
        {"pcm_like", backend(TimingBackend::PcmLike)}},
       {},
       {}},

      {"fast_forward", 3000, 3,
       // A live refresh schedule bounds every skip horizon.
       [](DeviceConfig& dc) {
         dc.refresh_interval_cycles = 2048;
         dc.refresh_busy_cycles = 4;
       },
       {{"sparse_off", fast_forward(false), episode(sparse_gups, "cyc")},
        {"sparse_on", fast_forward(true), episode(sparse_gups, "cyc")},
        {"bursty_off", fast_forward(false), episode(bursty, "cyc"), 4096},
        {"bursty_on", fast_forward(true), episode(bursty, "cyc"), 4096}},
       {speedup("sparse_on", "sparse_off", 5.0),
        speedup("bursty_on", "bursty_off")},
       // Each pair simulated one machine: the ratio is pure host time.
       {{"off and on retire the same count over the same cycles",
         [](const RowRun& r) {
           for (const char* w : {"sparse", "bursty"}) {
             const Lane& off = r[std::string(w) + "_off"];
             const Lane& on = r[std::string(w) + "_on"];
             if (off.completed != on.completed ||
                 off.fact("cycles") != on.fact("cycles")) {
               return false;
             }
           }
           return true;
         }},
        {"cycles skipped > 0", [](const RowRun& r) {
           return r["sparse_on"].fact("cycles_skipped") > 0 &&
                  r["bursty_on"].fact("cycles_skipped") > 0;
         }}}},
  };
  return kRows;
}

// ---- the loop ---------------------------------------------------------------

struct RowResult {
  const Row* row;
  u64 reps{0};
  RowRun run;
  std::vector<std::pair<const Gate*, double>> gates;  ///< with its value
  std::vector<std::pair<const char*, bool>> checks;
};

RowResult run_row(const Row& row, u64 requests, u64 reps) {
  RowResult res{&row, reps ? reps : row.reps, {}, {}, {}};
  for (const Mode& m : row.modes) {
    DeviceConfig dc = table1_config_4link_8bank();
    dc.capacity_bytes = 0;
    dc.model_data = false;
    if (row.base) row.base(dc);
    if (m.device) m.device(dc);
    auto lane = std::make_unique<Lane>(m.name, dc);
    lane->n = requests ? requests : (m.requests ? m.requests : row.requests);
    if (m.arm) m.arm(*lane);
    res.run.lanes.push_back(std::move(lane));
  }
  // Untimed warmup on every lane: fault in the storage arenas and settle
  // the CPU before any timed round.
  for (auto& l : res.run.lanes) {
    (void)l->episode(*l, std::min<u64>(l->n, 8192));
  }
  for (u64 rep = 0; rep < res.reps; ++rep) {
    for (auto& l : res.run.lanes) {
      const auto start = SteadyClock::now();
      const u64 work = l->episode(*l, l->n);
      const double secs =
          std::chrono::duration<double>(SteadyClock::now() - start).count();
      l->best = std::max(l->best, static_cast<double>(work) / secs);
    }
  }
  for (auto& l : res.run.lanes) {
    l->stats = l->sim.total_stats();
    l->note("cycles", l->sim.now());
    l->note("cycles_skipped", l->sim.cycles_skipped());
    if (l->collect) l->collect(*l);
  }

  bool retired = true;
  for (const auto& l : res.run.lanes) retired &= l->completed == l->requested;
  res.checks.emplace_back("every request retired", retired);
  for (const Check& c : row.checks) {
    res.checks.emplace_back(c.what, c.holds(res.run));
  }
  for (const Gate& g : row.gates) res.gates.emplace_back(&g, g.value(res.run));
  return res;
}

void print_row(const RowResult& res) {
  std::printf("== %s (%llu requests, best of %llu) ==\n", res.row->name,
              static_cast<unsigned long long>(res.run.lanes[0]->n),
              static_cast<unsigned long long>(res.reps));
  for (const auto& l : res.run.lanes) {
    std::printf("  %-20s %14.0f %s/s", l->name.c_str(), l->best, l->unit);
    for (const auto& [k, v] : l->facts) std::printf(" | %s %.0f", k.c_str(), v);
    std::printf("\n");
  }
  for (const auto& [g, v] : res.gates) {
    std::printf("  %-32s %10.3f", g->name.c_str(), v);
    if (g->limit) {
      std::printf("  (gate %s %g) %s", g->at_least ? ">=" : "<", *g->limit,
                  passes(*g, v) ? "ok" : "MISSED");
    }
    std::printf("\n");
  }
  for (const auto& [what, pass] : res.checks) {
    if (!pass) std::printf("  FAILED check: %s\n", what);
  }
}

/// Counts exactly, rates to six digits; JSON has no NaN or infinity.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf,
                v == std::floor(v) && std::fabs(v) < 1e15 ? "%.0f" : "%.6g",
                v);
  return buf;
}

void write_json(std::ostream& os, const std::vector<RowResult>& results,
                int status) {
  // The host context comes from CMake (bench/CMakeLists.txt).
  os << "{\n  \"bench\": \"bench_overhead\",\n  \"host\": {\"nproc\": "
     << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" HMCSIM_COMPILER "\", \"build_type\": \""
     HMCSIM_BUILD_TYPE "\", \"commit\": \"" HMCSIM_COMMIT "\"},\n  \"status\": "
     << status << ",\n  \"rows\": [\n";
  for (usize i = 0; i < results.size(); ++i) {
    const RowResult& res = results[i];
    os << "    {\"name\": \"" << res.row->name << "\", \"reps\": " << res.reps
       << ",\n     \"modes\": [\n";
    for (usize j = 0; j < res.run.lanes.size(); ++j) {
      const Lane& l = *res.run.lanes[j];
      os << "       {\"name\": \"" << l.name << "\", \"requests\": " << l.n
         << ", \"" << l.unit << "_per_s\": " << num(l.best)
         << ", \"completed\": " << l.completed << ", \"errors\": " << l.errors;
      for (const auto& [k, v] : l.facts) os << ", \"" << k << "\": " << num(v);
      os << "}" << (j + 1 < res.run.lanes.size() ? "," : "") << "\n";
    }
    os << "     ],\n     \"gates\": [\n";
    for (usize j = 0; j < res.gates.size(); ++j) {
      const auto& [g, v] = res.gates[j];
      os << "       {\"name\": \"" << g->name << "\", \"value\": " << num(v)
         << ", \"threshold\": " << (g->limit ? num(*g->limit) : "null")
         << ", \"bound\": \"" << (!g->limit ? "none" : g->at_least ? ">=" : "<")
         << "\", \"pass\": " << (passes(*g, v) ? "true" : "false") << "}"
         << (j + 1 < res.gates.size() ? "," : "") << "\n";
    }
    os << "     ],\n     \"checks\": [\n";
    for (usize j = 0; j < res.checks.size(); ++j) {
      os << "       {\"what\": \"" << res.checks[j].first << "\", \"pass\": "
         << (res.checks[j].second ? "true" : "false") << "}"
         << (j + 1 < res.checks.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int run_main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path|->]\n", argv[0]);
      return 2;
    }
  }
  // Unset (0): every row keeps its own default.  Set to 0: usage error.
  const char* const knobs[] = {"HMCSIM_OVERHEAD_REQUESTS",
                               "HMCSIM_OVERHEAD_REPS"};
  for (const char* name : knobs) {
    if (env_u64(name, 1) == 0) {
      std::fprintf(stderr, "error: %s must be at least 1\n", name);
      return 2;
    }
  }
  const u64 requests = env_u64(knobs[0], 0);
  const u64 reps = env_u64(knobs[1], 0);

  std::vector<RowResult> results;
  for (const Row& row : rows()) {
    results.push_back(run_row(row, requests, reps));
    print_row(results.back());
  }
  std::error_code ec;
  fs::remove_all(scratch_dir(), ec);

  bool checks_ok = true;
  bool gates_ok = true;
  for (const RowResult& res : results) {
    for (const auto& c : res.checks) checks_ok &= c.second;
    for (const auto& [g, v] : res.gates) gates_ok &= passes(*g, v);
  }
  int status = !checks_ok ? 1 : !gates_ok ? 3 : 0;

  if (json_path == "-") {
    write_json(std::cout, results, status);
  } else if (!json_path.empty()) {
    std::ofstream out(json_path);
    write_json(out, results, status);
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      status = 1;
    }
  }
  std::printf("%s\n", status == 0   ? "OK: every check and gate passed"
                      : status == 3 ? "TIMING: a timing gate missed"
                                    : "FAIL: a validity check failed");
  return status;
}

}  // namespace
}  // namespace hmcsim::bench

int main(int argc, char** argv) {
  return hmcsim::bench::run_main(argc, argv);
}
