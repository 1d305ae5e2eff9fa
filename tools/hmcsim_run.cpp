// hmcsim_run — the generic experiment runner.
//
// Wraps the whole stack into one CLI: load a device configuration, pick a
// workload, run it, and print a human summary plus (optionally) the full
// JSON report and Figure-5 CSV — everything a scripting pipeline needs
// without writing C++.
//
// Usage:
//   hmcsim_run [options]
//     --config <file>       key=value device config (see core/config_file.hpp)
//     --preset a|b|c|d      Table I configuration (default: a)
//     --topology <spec>     simple (default) | chain:N | ring:N | mesh:RxC
//                           | torus:RxC  (multi-cube runs spread requests
//                           round-robin across every cube)
//     --workload <name>     random|stream|stride|hotspot|chase|trace
//     --trace-in <file>     request trace for --workload trace
//     --requests <n>        request count (default 2^18)
//     --read-fraction <f>   read mix (default 0.5)
//     --request-bytes <n>   block size (default 64)
//     --policy rr|local     injection policy (default rr)
//     --json <file|->       write the JSON report ('-' = stdout)
//     --fig5-csv <file>     write the per-vault Figure-5 series CSV
//     --trace-out <file>    write the full text trace (level 2)
//     --chrome-trace <file> write a Chrome trace-event JSON (about:tracing)
//     --metrics-csv <file>  write one CSV row per telemetry pass: queue
//                           occupancies and stall counters (needs
//                           --telemetry-interval)
//     --seed <n>            generator seed (default 1)
//
//   RAS / fault injection (see docs/RAS.md):
//     --dram-sbe-ppm <n>    single-bit DRAM fault odds per access, ppm
//     --dram-dbe-ppm <n>    double-bit DRAM fault odds per access, ppm
//     --scrub-interval <n>  background scrub step every n cycles
//     --scrub-window <n>    bytes scanned per scrub step (default 4096)
//     --vault-fail-threshold <n>  uncorrectables before a vault fails
//     --failed-vaults <mask>      vaults failed from cycle 0 (bitmask)
//     --vault-remap 0|1     remap failed-vault traffic to the partner vault
//     --watchdog <n>        fail fast after n cycles without progress
//
//   Link reliability protocol (see docs/LINK_LAYER.md), the only source of
//   link errors: --link-error-ppm, --link-tokens, --link-burst,
//   --link-stuck-* and --link-fail-threshold need --link-protocol 1.
//     --link-protocol 0|1   spec retry buffers / tokens / IRTRY recovery
//     --link-error-ppm <n>  transient link error odds per transmission, ppm
//     --link-retry-limit <n>      replays per packet before CRC_FAILURE
//     --link-tokens <n>     receiver token pool, FLITs (0 = auto)
//     --link-retry-latency <n>    error-abort retraining window, cycles
//     --link-burst <n>      consecutive packets hit per injected error
//     --link-stuck-interval <n>   periodic retraining interval, cycles
//     --link-stuck-window <n>     retraining window inside the interval
//     --link-fail-threshold <n>   retry exhaustions before a link dies
//     --timeout <n>         host response timeout, cycles
//     --retries <n>         host resend budget per timed-out request
//     --backoff <n>         host backoff before the first resend, cycles
//
//   Vault timing backends (see docs/BACKENDS.md):
//     --backend <name>      device-wide bank-timing model:
//                           hmc_dram (default) | generic_ddr | pcm_like
//     --vault-backend <i:name>    per-vault override, repeatable; wins
//                           over any config-file vault_backend entry
//     --ddr-tcl <n>         generic_ddr column latency, cycles
//     --ddr-trcd <n>        generic_ddr RAS-to-CAS delay, cycles
//     --ddr-trp <n>         generic_ddr precharge, cycles
//     --ddr-tras <n>        generic_ddr row-active minimum, cycles
//     --pcm-read <n>        pcm_like read occupancy, cycles
//     --pcm-write <n>       pcm_like write occupancy, cycles
//     --pcm-write-gap <n>   pcm_like vault-wide write throttle gap, cycles
//
//   Crash-consistent checkpointing (see docs/FORMATS.md §5):
//     --checkpoint-dir <dir>      write rotated checkpoint generations
//                           (ckpt-<gen>.bin) into <dir>; each write is
//                           atomic (temp + fsync + rename)
//     --checkpoint-interval <n>   cycles between generations (default:
//                           the config checkpoint_interval_cycles, else
//                           10000 when --checkpoint-dir is given)
//     --checkpoint-keep <n> generations retained (default 3; 0 = all)
//     --resume              scan --checkpoint-dir newest-first, restore
//                           the first valid generation (falling back past
//                           torn/corrupt files), and continue the run
//                           bit-identical to one that was never
//                           interrupted.  An empty/missing directory
//                           starts fresh.
//
//   Observability (see docs/OBSERVABILITY.md):
//     --profile             self-profile the clock engine; print the
//                           per-stage wall-time table after the summary
//     --telemetry-interval <n>    sample queue/token/tag occupancy every
//                           n cycles: high-water marks and histograms, plus
//                           the rows behind --metrics-csv and the JSON
//                           samples section
//     --flight-recorder <file>    dump the flight-recorder event ring as
//                           text at exit (enables a 256-deep ring if
//                           --flight-recorder-depth is not given)
//     --flight-recorder-chrome <file>  ditto, as Chrome trace-event JSON
//     --flight-recorder-depth <n>      per-device ring capacity, events
//     --wedge-vaults <mask> mark every bank of the masked vaults busy
//                           forever (deterministic stall injection for
//                           watchdog / flight-recorder testing); the mask
//                           must not name vaults beyond the configured
//                           vault count
//
//   Chaos orchestration (see docs/CHAOS.md):
//     --chaos-plan <file>   arm a deterministic fault campaign (at/every/
//                           ramp/storm/quiet directives); events fire from
//                           the clock loop at exact cycles, bit-identical
//                           with and without fast-forward
//     --chaos-invariants <n>      run the live invariant suite every n
//                           cycles (defaults to 1024 when a plan is armed;
//                           0 disables; a config file's 0 means "use the
//                           default")
//     --chaos-shrink <file> after an invariant violation, ddmin the plan to
//                           a minimal reproducer tripping the same
//                           invariant at the same cycle and write it here
//
//   Every option also accepts the --flag=value spelling; numeric values are
//   parsed strictly (trailing junk, or a value too large for the setting it
//   feeds, is a usage error) and are decimal, or hex after 0x (0x2; 010 is
//   ten, as in config files and chaos plans).  A flag that sets one config
//   field (kFieldFlags) parses its value like that field's config-file key
//   and wins over the --config file.
//
//   Exit status: 0 success, 1 incomplete run, 2 usage error, 3 watchdog
//   fired (diagnostic dump on stderr, including link-protocol state and
//   the flight-recorder tail when enabled), 4 --resume found checkpoints
//   but none restored cleanly, 5 a periodic checkpoint write failed,
//   6 a chaos invariant violation froze the machine (post-mortem dump on
//   stderr; the shrunken reproducer is written when --chaos-shrink is
//   given).
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/report.hpp"
#include "chaos/plan.hpp"
#include "chaos/shrink.hpp"
#include "common/number.hpp"
#include "core/config_file.hpp"
#include "core/simulator.hpp"
#include "io/failpoint.hpp"
#include "trace/chrome.hpp"
#include "trace/lifecycle.hpp"
#include "trace/series.hpp"
#include "workload/driver.hpp"
#include "workload/trace_file.hpp"

using namespace hmcsim;

namespace {

/// A --topology spec split into its kind and sizes (parse_topology).
struct TopologySpec {
  std::string kind = "simple";
  u32 n = 0;     ///< chain:N, ring:N
  u32 rows = 0;  ///< mesh:RxC, torus:RxC
  u32 cols = 0;
};

struct Args {
  std::string config_file;
  char preset = 'a';
  std::string topology = "simple";
  TopologySpec topo;  ///< `topology`, parsed
  std::string workload = "random";
  std::string trace_in;
  u64 requests = u64{1} << 18;
  double read_fraction = 0.5;
  u32 request_bytes = 64;
  InjectionPolicy policy = InjectionPolicy::RoundRobin;
  std::string json_out;
  std::string fig5_csv;
  std::string trace_out;
  std::string chrome_trace;
  std::string metrics_csv;
  u32 seed = 1;
  bool no_fast_forward = false;  ///< disable the idle-cycle fast path
  /// kFieldFlags values, in command-line order; applied over the config.
  std::vector<std::pair<const ConfigField*, u64>> field_overrides;
  std::vector<std::string> vault_backends;  ///< repeatable "idx:name"
  u64 timeout = 0;
  u32 retries = 0;
  u64 backoff = 0;
  // Crash-consistent checkpointing.
  std::string checkpoint_dir;
  u64 checkpoint_keep = 3;      ///< generations retained (0 = keep all)
  bool resume = false;
  // Observability.
  bool profile = false;
  std::string flight_recorder_out;
  std::string flight_recorder_chrome;
  u64 wedge_vaults = 0;
  // Chaos orchestration (docs/CHAOS.md).
  std::string chaos_plan;
  std::string chaos_shrink;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config FILE | --preset a|b|c|d] "
               "[--workload random|stream|stride|hotspot|chase|trace]\n"
               "       [--trace-in FILE] [--requests N] "
               "[--read-fraction F] [--request-bytes N]\n"
               "       [--policy rr|local] [--json FILE|-] "
               "[--fig5-csv FILE] [--trace-out FILE]\n"
               "       [--chrome-trace FILE] "
               "[--metrics-csv FILE] [--seed N] "
               "[--no-fast-forward]\n"
               "       [--profile] [--telemetry-interval N] "
               "[--flight-recorder FILE] [--flight-recorder-chrome FILE]\n"
               "       [--flight-recorder-depth N] [--wedge-vaults MASK]\n"
               "       [--backend hmc_dram|generic_ddr|pcm_like] "
               "[--vault-backend IDX:NAME]...\n"
               "       [--ddr-tcl N] [--ddr-trcd N] [--ddr-trp N] "
               "[--ddr-tras N]\n"
               "       [--pcm-read N] [--pcm-write N] [--pcm-write-gap N]\n"
               "       [--checkpoint-dir DIR] [--checkpoint-interval N] "
               "[--checkpoint-keep N] [--resume]\n"
               "       [--chaos-plan FILE] [--chaos-invariants N] "
               "[--chaos-shrink FILE]\n",
               argv0);
}

// Strict value parsing: the whole token must convert — no trailing junk, no
// silent negative-to-huge-unsigned wrap, no out-of-range values.  A typo'd
// value aborts the run instead of silently changing the experiment.
bool value_error(const std::string& flag, const char* v, const char* what) {
  std::fprintf(stderr, "error: option '%s' expects %s, got '%s'\n",
               flag.c_str(), what, v);
  return false;
}

bool parse_u64_strict(const std::string& flag, const char* v, u64& out) {
  return parse_unsigned(v, out) ||
         value_error(flag, v, "an unsigned number");
}

bool parse_u32_strict(const std::string& flag, const char* v, u32& out) {
  u64 wide = 0;
  if (!parse_u64_strict(flag, v, wide)) return false;
  if (wide > 0xffffffffULL) return value_error(flag, v, "a 32-bit number");
  out = static_cast<u32>(wide);
  return true;
}

bool parse_double_strict(const std::string& flag, const char* v, double& out) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (v[0] == '\0' || end == v || *end != '\0' || errno == ERANGE) {
    return value_error(flag, v, "a number");
  }
  out = parsed;
  return true;
}

/// Split "<kind>[:N | :RxC]", parsing the sizes strictly: "chain:3junk" is
/// a usage error, not a 3-cube chain.  Whether the kind exists and the
/// sizes fit is for the topology builders to judge.
bool parse_topology(const std::string& spec, TopologySpec& out) {
  const auto colon = spec.find(':');
  out.kind = spec.substr(0, colon);
  if (colon == std::string::npos) return true;
  const std::string dims = spec.substr(colon + 1);
  const auto x = dims.find('x');
  if (x == std::string::npos) {
    return parse_u32_strict("--topology", dims.c_str(), out.n);
  }
  return parse_u32_strict("--topology", dims.substr(0, x).c_str(),
                          out.rows) &&
         parse_u32_strict("--topology", dims.substr(x + 1).c_str(), out.cols);
}

/// Options that set one config field.  The field table parses the value (an
/// enum's name, a flag's 0/1, a number in any C base) and bounds it by the
/// member's type; main() applies it after the config file loads, so the
/// flag wins over the file.
struct FieldFlag {
  const char* flag;
  std::string_view key;
};
constexpr FieldFlag kFieldFlags[] = {
    {"--dram-sbe-ppm", "dram_sbe_rate_ppm"},
    {"--dram-dbe-ppm", "dram_dbe_rate_ppm"},
    {"--scrub-interval", "scrub_interval_cycles"},
    {"--scrub-window", "scrub_window_bytes"},
    {"--vault-fail-threshold", "vault_fail_threshold"},
    {"--failed-vaults", "failed_vault_mask"},
    {"--vault-remap", "vault_remap"},
    {"--watchdog", "watchdog_cycles"},
    {"--link-error-ppm", "link_error_rate_ppm"},
    {"--link-retry-limit", "link_retry_limit"},
    {"--link-protocol", "link_protocol"},
    {"--link-tokens", "link_tokens"},
    {"--link-retry-latency", "link_retry_latency"},
    {"--link-burst", "link_error_burst_len"},
    {"--link-stuck-interval", "link_stuck_interval_cycles"},
    {"--link-stuck-window", "link_stuck_window_cycles"},
    {"--link-fail-threshold", "link_fail_threshold"},
    {"--backend", "timing_backend"},
    {"--ddr-tcl", "ddr_tcl"},
    {"--ddr-trcd", "ddr_trcd"},
    {"--ddr-trp", "ddr_trp"},
    {"--ddr-tras", "ddr_tras"},
    {"--pcm-read", "pcm_read_cycles"},
    {"--pcm-write", "pcm_write_cycles"},
    {"--pcm-write-gap", "pcm_write_gap_cycles"},
    {"--telemetry-interval", "telemetry_interval_cycles"},
    {"--flight-recorder-depth", "flight_recorder_depth"},
    {"--checkpoint-interval", "checkpoint_interval_cycles"},
    {"--chaos-invariants", "chaos_invariants"},
};
static_assert(std::ranges::all_of(kFieldFlags, [](const FieldFlag& flag) {
  return std::ranges::any_of(kConfigFields, [&](const ConfigField& f) {
    return f.key == flag.key && f.keyed();
  });
}));

bool parse_args(int argc, char** argv, Args& args) {
  // Value-taking options, grouped by target type.  Both `--flag value` and
  // `--flag=value` are accepted; boolean switches reject an `=value` suffix.
  struct StrOpt { const char* flag; std::string Args::* field; };
  struct U64Opt { const char* flag; u64 Args::* field; };
  struct U32Opt { const char* flag; u32 Args::* field; };
  static constexpr StrOpt kStrOpts[] = {
      {"--config", &Args::config_file},
      {"--topology", &Args::topology},
      {"--workload", &Args::workload},
      {"--trace-in", &Args::trace_in},
      {"--json", &Args::json_out},
      {"--fig5-csv", &Args::fig5_csv},
      {"--trace-out", &Args::trace_out},
      {"--chrome-trace", &Args::chrome_trace},
      {"--metrics-csv", &Args::metrics_csv},
      {"--flight-recorder", &Args::flight_recorder_out},
      {"--flight-recorder-chrome", &Args::flight_recorder_chrome},
      {"--checkpoint-dir", &Args::checkpoint_dir},
      {"--chaos-plan", &Args::chaos_plan},
      {"--chaos-shrink", &Args::chaos_shrink},
  };
  static constexpr U64Opt kU64Opts[] = {
      {"--requests", &Args::requests},
      {"--timeout", &Args::timeout},
      {"--backoff", &Args::backoff},
      {"--wedge-vaults", &Args::wedge_vaults},
      {"--checkpoint-keep", &Args::checkpoint_keep},
  };
  static constexpr U32Opt kU32Opts[] = {
      {"--request-bytes", &Args::request_bytes},
      {"--seed", &Args::seed},
      {"--retries", &Args::retries},
  };

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (flag.size() > 2 && flag.compare(0, 2, "--") == 0) {
      const auto eq = flag.find('=');
      if (eq != std::string::npos) {
        inline_value = flag.substr(eq + 1);
        flag.resize(eq);
        has_inline = true;
      }
    }

    // Boolean switches.
    if (flag == "--no-fast-forward" || flag == "--profile" ||
        flag == "--resume") {
      if (has_inline) {
        std::fprintf(stderr, "error: option '%s' takes no value\n",
                     flag.c_str());
        return false;
      }
      if (flag == "--no-fast-forward") {
        args.no_fast_forward = true;
      } else if (flag == "--profile") {
        args.profile = true;
      } else {
        args.resume = true;
      }
      continue;
    }

    // Fetch the value for a value-taking option; null means it is missing.
    const auto take_value = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: option '%s' requires a value\n",
                     flag.c_str());
        usage(argv[0]);
        return nullptr;
      }
      return argv[++i];
    };

    // The entry of `table` for this flag, or null.
    const auto lookup = [&](const auto& table) {
      const auto it = std::ranges::find_if(
          table, [&](const auto& opt) { return flag == opt.flag; });
      return it == std::end(table) ? nullptr : &*it;
    };
    if (const StrOpt* opt = lookup(kStrOpts)) {
      const char* v = take_value();
      if (v == nullptr) return false;
      args.*opt->field = v;
      continue;
    }
    if (const U64Opt* opt = lookup(kU64Opts)) {
      const char* v = take_value();
      if (v == nullptr || !parse_u64_strict(flag, v, args.*opt->field)) {
        return false;
      }
      continue;
    }
    if (const U32Opt* opt = lookup(kU32Opts)) {
      const char* v = take_value();
      if (v == nullptr || !parse_u32_strict(flag, v, args.*opt->field)) {
        return false;
      }
      continue;
    }
    if (const FieldFlag* opt = lookup(kFieldFlags)) {
      const char* v = take_value();
      if (v == nullptr) return false;
      const ConfigField& field = *find_config_field(opt->key);
      std::string why;
      const std::optional<u64> word = parse_config_value(field, v, &why);
      if (!word) {
        std::fprintf(stderr, "error: option '%s': %s\n", flag.c_str(),
                     why.c_str());
        return false;
      }
      args.field_overrides.emplace_back(&field, *word);
      continue;
    }

    if (flag == "--vault-backend") {
      // Repeatable; each occurrence adds one "<vault>:<name>" override.
      const char* v = take_value();
      if (v == nullptr) return false;
      args.vault_backends.emplace_back(v);
      continue;
    }
    if (flag == "--preset") {
      const char* v = take_value();
      if (v == nullptr) return false;
      if (std::strlen(v) != 1) return value_error(flag, v, "one of a|b|c|d");
      args.preset = static_cast<char>(std::tolower(v[0]));
      continue;
    }
    if (flag == "--policy") {
      const char* v = take_value();
      if (v == nullptr) return false;
      if (std::strcmp(v, "local") == 0) {
        args.policy = InjectionPolicy::LocalityAware;
      } else if (std::strcmp(v, "rr") == 0) {
        args.policy = InjectionPolicy::RoundRobin;
      } else {
        return value_error(flag, v, "rr or local");
      }
      continue;
    }
    if (flag == "--read-fraction") {
      const char* v = take_value();
      if (v == nullptr || !parse_double_strict(flag, v, args.read_fraction)) {
        return false;
      }
      continue;
    }

    // An unrecognized option is a hard error so typos cannot silently
    // change an experiment.
    std::fprintf(stderr, "error: unknown option '%s'\n", flag.c_str());
    usage(argv[0]);
    return false;
  }
  return parse_topology(args.topology, args.topo);
}

std::unique_ptr<Generator> make_generator(const Args& args,
                                          const DeviceConfig& dc) {
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  gc.request_bytes = args.request_bytes;
  gc.read_fraction = args.read_fraction;
  gc.seed = args.seed;
  if (args.workload == "random") {
    return std::make_unique<RandomAccessGenerator>(gc);
  }
  if (args.workload == "stream") {
    return std::make_unique<StreamGenerator>(gc);
  }
  if (args.workload == "stride") {
    return std::make_unique<StrideGenerator>(gc, 4096 + 64);
  }
  if (args.workload == "hotspot") {
    return std::make_unique<HotspotGenerator>(gc, 0.9, u64{1} << 20);
  }
  if (args.workload == "chase") {
    return std::make_unique<PointerChaseGenerator>(gc);
  }
  if (args.workload == "trace") {
    std::ifstream in(args.trace_in);
    if (!in) {
      std::fprintf(stderr, "cannot open trace %s\n", args.trace_in.c_str());
      return nullptr;
    }
    auto gen = std::make_unique<TraceFileGenerator>(in);
    if (gen->malformed_lines() != 0) {
      // Strict by policy: a malformed line means the trace is not what the
      // user thinks it is, so name the first offender and refuse to run.
      std::fprintf(stderr, "%s:%llu: %s (%llu malformed line%s total)\n",
                   args.trace_in.c_str(),
                   static_cast<unsigned long long>(gen->first_error_line()),
                   gen->first_error().c_str(),
                   static_cast<unsigned long long>(gen->malformed_lines()),
                   gen->malformed_lines() == 1 ? "" : "s");
      return nullptr;
    }
    if (!gen->valid()) {
      std::fprintf(stderr, "trace %s holds no requests\n",
                   args.trace_in.c_str());
      return nullptr;
    }
    return gen;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return nullptr;
}

/// Build the requested topology; empty (num_devices() == 0) on failure with
/// the reason in `diag`.  Factored out so the chaos shrinker's oracle can
/// rebuild an identical topology for every candidate replay.
Topology build_topology(const Args& args, const DeviceConfig& dc,
                        std::string* diag) {
  const TopologySpec& t = args.topo;
  const u32 links = dc.num_links;
  if (t.kind == "simple") return make_simple(links, diag);
  if (t.kind == "chain") return make_chain(t.n, links, 2, 1, diag);
  if (t.kind == "ring") return make_ring(t.n, links, 2, diag);
  if (t.kind == "mesh") return make_mesh(t.rows, t.cols, links, 2, diag);
  if (t.kind == "torus") return make_torus2d(t.rows, t.cols, links, 2, diag);
  if (diag != nullptr) *diag = "unknown topology '" + args.topology + "'";
  return Topology{};
}

/// Chaos host-side wiring: host_timeout events retarget the driver's
/// response deadline (`timeout` is its configured baseline), and the
/// invariant suite gains the host tag-pool / conservation probe over the
/// caller's in-progress result.
void wire_chaos_host(Simulator& sim, HostDriver& driver,
                     const DriverResult& r, Cycle timeout) {
  ChaosEngine* chaos = sim.chaos();
  if (chaos == nullptr) return;
  chaos->set_host_timeout_hook(
      [&driver](u64 cycles) { driver.set_response_timeout(cycles); },
      timeout);
  chaos->set_host_probe([&driver, &r](std::string* detail) {
    return driver.invariants_ok(r, detail);
  });
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.resume && args.checkpoint_dir.empty()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint-dir\n");
    usage(argv[0]);
    return 2;
  }
  // HMCSIM_FAILPOINT=<short|enospc|eio|crash>:<bytes> makes checkpoint-write
  // failure modes reproducible out of process (the CI crash harness).
  io::arm_failpoint_from_env();

  // ---- configuration -------------------------------------------------------
  SimConfig config;
  if (!args.config_file.empty()) {
    std::ifstream in(args.config_file);
    if (!in) {
      std::fprintf(stderr, "cannot open config %s\n",
                   args.config_file.c_str());
      return 1;
    }
    const ConfigParseResult parsed = parse_config(in);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s:%s\n", args.config_file.c_str(),
                   parsed.error.c_str());
      return 1;
    }
    config = parsed.config;
  } else {
    switch (args.preset) {
      case 'a': config.device = table1_config_4link_8bank(); break;
      case 'b': config.device = table1_config_4link_16bank(); break;
      case 'c': config.device = table1_config_8link_8bank(); break;
      case 'd': config.device = table1_config_8link_16bank(); break;
      default:
        std::fprintf(stderr, "unknown preset '%c'\n", args.preset);
        return 1;
    }
    config.device.model_data = false;
  }

  // ---- chaos plan -----------------------------------------------------------
  ChaosPlan chaos_plan;
  const bool chaos_armed = !args.chaos_plan.empty();
  if (!args.chaos_shrink.empty() && !chaos_armed) {
    std::fprintf(stderr, "error: --chaos-shrink requires --chaos-plan\n");
    usage(argv[0]);
    return 2;
  }
  if (chaos_armed) {
    std::ifstream in(args.chaos_plan);
    if (!in) {
      std::fprintf(stderr, "cannot open chaos plan %s\n",
                   args.chaos_plan.c_str());
      return 2;
    }
    ChaosPlanParseResult parsed = parse_chaos_plan(in);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s:%s\n", args.chaos_plan.c_str(),
                   parsed.error.c_str());
      return 2;
    }
    chaos_plan = std::move(parsed.plan);
  }

  // ---- overrides ------------------------------------------------------------
  {
    DeviceConfig& dc = config.device;
    // An armed plan runs the invariant checker every 1024 cycles unless the
    // config file names a cadence; an explicit --chaos-invariants (0 too)
    // wins, so it is applied after.
    if (chaos_armed && dc.chaos_invariants == 0) dc.chaos_invariants = 1024;
    for (const auto& [field, word] : args.field_overrides) field->set(dc, word);
    if (args.no_fast_forward) dc.fast_forward = false;
    // A --checkpoint-dir with no cadence from the flag or the file writes
    // every 10000 cycles.
    if (!args.checkpoint_dir.empty() && dc.checkpoint_interval_cycles == 0) {
      dc.checkpoint_interval_cycles = 10000;
    }
    if (args.profile) dc.self_profile = true;
    if ((!args.flight_recorder_out.empty() ||
         !args.flight_recorder_chrome.empty()) &&
        dc.flight_recorder_depth == 0) {
      dc.flight_recorder_depth = 256;  // a dump was asked for: default ring
    }
    // A chaos plan that retargets DRAM fault rates needs the data model
    // present (those injectors live in the data store).
    for (const ChaosEvent& ev : chaos_plan.events) {
      if (ev.action == ChaosAction::DramSbePpm ||
          ev.action == ChaosAction::DramDbePpm) {
        dc.model_data = true;
        break;
      }
    }
    // The DRAM fault domain lives in the data store; injection and
    // scrubbing need it present.
    if (dc.dram_sbe_rate_ppm != 0 || dc.dram_dbe_rate_ppm != 0 ||
        dc.scrub_interval_cycles != 0) {
      dc.model_data = true;
    }
    // A --vault-backend replaces any file-supplied override for the same
    // vault (docs/BACKENDS.md).
    for (const std::string& spec : args.vault_backends) {
      const auto colon = spec.find(':');
      u64 vault = 0;
      TimingBackend backend;
      if (colon == std::string::npos ||
          !parse_unsigned(spec.substr(0, colon), vault) || vault >= 64 ||
          !timing_backend_from_string(spec.substr(colon + 1), &backend)) {
        std::fprintf(stderr,
                     "error: --vault-backend expects "
                     "<vault>:<hmc_dram|generic_ddr|pcm_like>, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      std::erase_if(dc.vault_backends, [&](const auto& e) {
        return e.first == static_cast<u32>(vault);
      });
      dc.vault_backends.emplace_back(static_cast<u32>(vault), backend);
    }
  }

  // The metrics CSV is the telemetry pass's rows; without a cadence it
  // would be a header and nothing else.
  if (!args.metrics_csv.empty() &&
      config.device.telemetry_interval_cycles == 0) {
    std::fprintf(stderr,
                 "error: --metrics-csv needs --telemetry-interval N (its "
                 "rows come from the telemetry sampling pass)\n");
    return 2;
  }

  // A wedge mask naming vaults beyond the configured count is a typo'd
  // experiment, not a quieter one — reject it before anything runs.
  if (args.wedge_vaults != 0) {
    const u32 nv = config.device.num_vaults();
    if (nv < 64 && (args.wedge_vaults >> nv) != 0) {
      std::fprintf(stderr,
                   "error: --wedge-vaults mask 0x%llx names vaults beyond "
                   "the configured %u\n",
                   static_cast<unsigned long long>(args.wedge_vaults), nv);
      return 2;
    }
  }

  // ---- topology -------------------------------------------------------------
  // The streams the simulator's sinks write into outlive the simulator, so
  // on every exit a sink's destructor (ChromeWriter closes its document)
  // writes into an open file.
  std::ofstream trace_file;
  std::ofstream chrome_file;
  Simulator sim;
  std::string diag;
  Topology topo = build_topology(args, config.device, &diag);
  if (topo.num_devices() == 0) {
    std::fprintf(stderr, "topology build failed: %s\n", diag.c_str());
    return 1;
  }
  config.num_devices = topo.num_devices();
  if (!ok(sim.init(config, std::move(topo), &diag))) {
    std::fprintf(stderr, "init failed: %s\n", diag.c_str());
    return 1;
  }

  // ---- resume ---------------------------------------------------------------
  // Before any sinks attach: a restore rebuilds the device array, so wedge
  // injection and observers must come after it.  The restored checkpoint
  // keeps this invocation's execution knobs (fast-forward, cadence).
  u64 resumed_gen = 0;
  bool resumed = false;
  std::string resumed_host_blob;
  if (args.resume) {
    CheckpointError rerr;
    const Status rst = resume_from_directory(
        sim, args.checkpoint_dir, &resumed_gen, &resumed_host_blob, &rerr);
    if (ok(rst)) {
      resumed = true;
    } else if (rst == Status::NoResponse) {
      std::fprintf(stderr, "resume: no checkpoints in %s; starting fresh\n",
                   args.checkpoint_dir.c_str());
    } else {
      std::fprintf(stderr, "resume failed: %s\n", rerr.message().c_str());
      return 4;
    }
  }

  // ---- chaos arming ---------------------------------------------------------
  // After a possible resume: re-passing the plan file against a restored
  // mid-campaign checkpoint is a CRC-verified no-op that keeps the cursor,
  // while a different plan is rejected instead of silently restarting.
  if (chaos_armed) {
    std::string cdiag;
    if (!ok(sim.set_chaos_plan(chaos_plan, &cdiag))) {
      std::fprintf(stderr, "%s: %s\n", args.chaos_plan.c_str(),
                   cdiag.c_str());
      return 2;
    }
  }

  if (args.wedge_vaults != 0) {
    // Deterministic stall injection: every bank of the masked vaults stays
    // busy forever (refresh only extends busy windows, never shortens them),
    // so their requests never retire and the watchdog must eventually fire.
    for (u32 d = 0; d < sim.num_devices(); ++d) {
      Device& dev = sim.device(d);
      for (u32 v = 0; v < config.device.num_vaults(); ++v) {
        if ((args.wedge_vaults >> v & 1) == 0) continue;
        for (Cycle& busy : dev.vaults[v].bank_busy_until) busy = ~Cycle{0};
      }
    }
  }

  // ---- sinks --------------------------------------------------------------
  std::shared_ptr<VaultSeriesSink> series;
  if (!args.fig5_csv.empty() || !args.trace_out.empty()) {
    sim.tracer().set_level(TraceLevel::Events);
    if (!args.fig5_csv.empty()) {
      series = std::make_shared<VaultSeriesSink>(
          config.device.num_vaults(), 64);
      sim.tracer().add_sink(series);
    }
    if (!args.trace_out.empty()) {
      trace_file.open(args.trace_out);
      if (!trace_file) {
        std::fprintf(stderr, "cannot open %s\n", args.trace_out.c_str());
        return 1;
      }
      sim.tracer().add_sink(std::make_shared<TextSink>(trace_file));
    }
  }

  // The lifecycle sink is always on: it feeds the latency breakdown in
  // the summary and the JSON report, and costs O(1) memory.
  auto lifecycle = std::make_shared<LifecycleSink>();
  sim.add_lifecycle_observer(lifecycle);

  std::shared_ptr<ChromeTraceSink> chrome;
  if (!args.chrome_trace.empty()) {
    chrome_file.open(args.chrome_trace);
    if (!chrome_file) {
      std::fprintf(stderr, "cannot open %s\n", args.chrome_trace.c_str());
      return 1;
    }
    chrome = std::make_shared<ChromeTraceSink>(chrome_file);
    sim.add_lifecycle_observer(chrome);
  }

  // ---- workload -------------------------------------------------------------
  const std::unique_ptr<Generator> gen = make_generator(args, config.device);
  if (!gen) return 1;
  DriverConfig dcfg;
  dcfg.total_requests = args.requests;
  dcfg.policy = args.policy;
  if (sim.num_devices() > 1) dcfg.targets = TargetPolicy::RoundRobinCubes;
  dcfg.max_cycles = u64{4} * 1000 * 1000 * 1000;
  dcfg.response_timeout_cycles = args.timeout;
  dcfg.retry_limit = args.retries;
  dcfg.retry_backoff_cycles = args.backoff;
  HostDriver driver(sim, *gen, dcfg);
  DriverResult r;
  if (resumed) {
    if (!ok(restore_host_state(resumed_host_blob, driver, r))) {
      std::fprintf(stderr,
                   "resume failed: generation %llu has no usable host state\n",
                   static_cast<unsigned long long>(resumed_gen));
      return 4;
    }
    std::printf("resumed   : generation %llu at cycle %llu\n",
                static_cast<unsigned long long>(resumed_gen),
                static_cast<unsigned long long>(sim.now()));
  }

  // Installed after the host-state restore so a live override from a
  // checkpointed campaign re-applies to this driver.
  wire_chaos_host(sim, driver, r, dcfg.response_timeout_cycles);

  // ---- drive ----------------------------------------------------------------
  const u64 ckpt_interval = args.checkpoint_dir.empty()
                                ? 0
                                : config.device.checkpoint_interval_cycles;
  if (ckpt_interval == 0) {
    while (driver.step(r)) {}
    driver.finish(r);
  } else {
    // Periodic generations: the trigger is "now() reached the next interval
    // boundary" rather than an exact modulus, so fast-forwarded cycles
    // cannot jump over it — and a resumed run recomputes the same boundary
    // from the restored cycle, keeping the generation sequence (numbering
    // and bytes) identical to a run that was never interrupted.
    std::error_code ec;
    std::filesystem::create_directories(args.checkpoint_dir, ec);
    u64 next_gen = resumed_gen + 1;
    if (!resumed) {
      // Continue numbering past any debris so rotation stays monotonic.
      const auto existing = list_checkpoint_generations(args.checkpoint_dir);
      next_gen = existing.empty() ? 0 : existing.back().gen + 1;
    }
    u64 next_ckpt = (sim.now() / ckpt_interval + 1) * ckpt_interval;
    bool write_failed = false;
    while (driver.step(r)) {
      if (sim.now() < next_ckpt) continue;
      CheckpointError werr;
      if (!ok(sim.save_checkpoint_file(
              checkpoint_generation_path(args.checkpoint_dir, next_gen),
              &werr, save_host_state(driver, r)))) {
        std::fprintf(stderr, "checkpoint write failed: %s\n",
                     werr.message().c_str());
        write_failed = true;
        break;
      }
      ++next_gen;
      prune_checkpoint_generations(
          args.checkpoint_dir,
          static_cast<u32>(std::min<u64>(args.checkpoint_keep, 0xffffffffULL)));
      next_ckpt = (sim.now() / ckpt_interval + 1) * ckpt_interval;
    }
    driver.finish(r);
    if (write_failed) return 5;
  }
  sim.tracer().flush();
  sim.flush_observability();

  // ---- report ---------------------------------------------------------------
  const DeviceStats s = sim.total_stats();
  std::printf("topology  : %s (%u cube%s)\n", args.topology.c_str(),
              sim.num_devices(), sim.num_devices() == 1 ? "" : "s");
  std::printf("workload  : %s x %llu (%u B, %.0f%% reads, %s)\n",
              gen->name(), static_cast<unsigned long long>(args.requests),
              args.request_bytes, args.read_fraction * 100,
              args.policy == InjectionPolicy::RoundRobin ? "round-robin"
                                                         : "locality-aware");
  std::printf("cycles    : %llu%s\n",
              static_cast<unsigned long long>(r.cycles),
              r.hit_cycle_cap ? "  (CYCLE CAP HIT)" : "");
  if (sim.cycles_skipped() != 0) {
    std::printf("skipped   : %llu idle cycles fast-forwarded (%.1f%%)\n",
                static_cast<unsigned long long>(sim.cycles_skipped()),
                100.0 * static_cast<double>(sim.cycles_skipped()) /
                    static_cast<double>(sim.now() == 0 ? 1 : sim.now()));
  }
  std::printf("completed : %llu (%llu errors)\n",
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.errors));
  std::printf("latency   : mean %.1f  p50 %llu  p95 %llu  p99 %llu  "
              "max %llu\n",
              r.latency.mean(),
              static_cast<unsigned long long>(r.latency.percentile(0.50)),
              static_cast<unsigned long long>(r.latency.percentile(0.95)),
              static_cast<unsigned long long>(r.latency.percentile(0.99)),
              static_cast<unsigned long long>(r.latency.max));
  std::printf("bandwidth : %.1f GB/s of bank traffic at 1.25 GHz\n",
              effective_bandwidth_gbs(s.bytes_read + s.bytes_written,
                                      r.cycles));
  std::printf("contention: %llu conflicts, %llu xbar stalls, %llu latency "
              "events\n",
              static_cast<unsigned long long>(s.bank_conflicts),
              static_cast<unsigned long long>(s.xbar_rqst_stalls),
              static_cast<unsigned long long>(s.latency_penalties));
  if (s.dram_sbes + s.dram_dbes + s.scrub_corrections +
          s.scrub_uncorrectables + s.vault_failures + s.vault_remaps +
          s.degraded_drops + r.timeouts + r.retries + r.abandoned !=
      0) {
    std::printf("ras       : %llu sbe, %llu dbe, %llu scrubbed, "
                "%llu vault failures, %llu remaps, %llu drops\n",
                static_cast<unsigned long long>(s.dram_sbes),
                static_cast<unsigned long long>(s.dram_dbes),
                static_cast<unsigned long long>(s.scrub_corrections),
                static_cast<unsigned long long>(s.vault_failures),
                static_cast<unsigned long long>(s.vault_remaps),
                static_cast<unsigned long long>(s.degraded_drops));
    std::printf("host ras  : %llu timeouts, %llu retries, %llu abandoned\n",
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.abandoned));
  }
  if (lifecycle->completed() != 0) {
    std::printf("%s", format_latency_breakdown(*lifecycle).c_str());
  }
  if (config.device.self_profile) {
    std::printf("%s", format_profile_table(sim).c_str());
    const std::string tel = format_telemetry_table(sim);
    if (!tel.empty()) std::printf("\n%s", tel.c_str());
  }

  ReportExtras extras;
  extras.lifecycle = lifecycle.get();
  if (!args.json_out.empty()) {
    if (args.json_out == "-") {
      write_stats_json(std::cout, sim, {}, extras);
    } else {
      std::ofstream out(args.json_out);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", args.json_out.c_str());
        return 1;
      }
      write_stats_json(out, sim, {}, extras);
      std::printf("json      : %s\n", args.json_out.c_str());
    }
  }
  if (chrome) {
    chrome->finish();
    chrome_file.flush();
    std::printf("chrome    : %s (%llu packets)\n", args.chrome_trace.c_str(),
                static_cast<unsigned long long>(chrome->packets_emitted()));
  }
  if (!args.metrics_csv.empty()) {
    std::ofstream out(args.metrics_csv);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.metrics_csv.c_str());
      return 1;
    }
    sim.telemetry()->write_csv(out);
    std::printf("metrics   : %s (%llu samples)\n", args.metrics_csv.c_str(),
                static_cast<unsigned long long>(
                    sim.telemetry()->rows().size()));
  }
  if (series) {
    std::ofstream out(args.fig5_csv);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.fig5_csv.c_str());
      return 1;
    }
    write_fig5_csv(out, *series);
    std::printf("fig5 csv  : %s\n", args.fig5_csv.c_str());
  }
  if (trace_file.is_open()) {
    std::printf("trace     : %s\n", args.trace_out.c_str());
  }
  if (!args.flight_recorder_out.empty()) {
    std::ofstream out(args.flight_recorder_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n",
                   args.flight_recorder_out.c_str());
      return 1;
    }
    sim.dump_flight_recorder(out);
    std::printf("flight rec: %s\n", args.flight_recorder_out.c_str());
  }
  if (!args.flight_recorder_chrome.empty()) {
    std::ofstream out(args.flight_recorder_chrome);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n",
                   args.flight_recorder_chrome.c_str());
      return 1;
    }
    sim.dump_flight_recorder_chrome(out);
    std::printf("flight rec: %s (chrome trace)\n",
                args.flight_recorder_chrome.c_str());
  }
  if (const ChaosEngine* chaos = sim.chaos();
      chaos != nullptr && !chaos->plan().empty()) {
    std::printf("chaos     : %llu/%llu events applied, %llu invariant "
                "passes\n",
                static_cast<unsigned long long>(chaos->events_applied()),
                static_cast<unsigned long long>(chaos->plan().events.size()),
                static_cast<unsigned long long>(chaos->invariant_checks()));
  }
  if (sim.chaos_violated()) {
    std::fprintf(stderr, "%s", sim.chaos_report().c_str());
    if (!args.chaos_shrink.empty()) {
      const ChaosViolation& v = sim.chaos()->violation();
      ChaosOracleResult target;
      target.tripped = true;
      target.invariant = v.invariant;
      target.cycle = v.cycle;
      // Each probe replays a candidate plan on a fresh, identically
      // configured stack, so no state leaks between candidates and the
      // shrunken plan reproduces bit-identically from the command line.
      const auto oracle = [&](const ChaosPlan& candidate) {
        ChaosOracleResult out;
        Simulator osim;
        std::string odiag;
        Topology otopo = build_topology(args, config.device, &odiag);
        if (otopo.num_devices() == 0) return out;
        if (!ok(osim.init(config, std::move(otopo), &odiag))) return out;
        if (!ok(osim.set_chaos_plan(candidate, &odiag))) return out;
        const std::unique_ptr<Generator> ogen =
            make_generator(args, config.device);
        if (!ogen) return out;
        HostDriver odriver(osim, *ogen, dcfg);
        DriverResult orr;
        wire_chaos_host(osim, odriver, orr, dcfg.response_timeout_cycles);
        while (odriver.step(orr)) {}
        odriver.finish(orr);
        if (osim.chaos_violated()) {
          out.tripped = true;
          out.invariant = osim.chaos()->violation().invariant;
          out.cycle = osim.chaos()->violation().cycle;
        }
        return out;
      };
      const ChaosShrinkResult shrunk =
          shrink_chaos_plan(chaos_plan, target, oracle);
      std::ofstream out(args.chaos_shrink);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", args.chaos_shrink.c_str());
      } else {
        write_chaos_plan(out, shrunk.plan);
        std::fprintf(
            stderr,
            "chaos shrink: %llu of %llu events reproduce %s at cycle %llu "
            "(%u oracle runs) -> %s\n",
            static_cast<unsigned long long>(shrunk.plan.events.size()),
            static_cast<unsigned long long>(chaos_plan.events.size()),
            shrunk.repro.invariant.c_str(),
            static_cast<unsigned long long>(shrunk.repro.cycle),
            shrunk.oracle_runs, args.chaos_shrink.c_str());
      }
    }
    return 6;
  }
  if (r.watchdog_fired) {
    std::fprintf(stderr, "%s", sim.watchdog_report().c_str());
    return 3;
  }
  return r.completed == args.requests ? 0 : 1;
}
