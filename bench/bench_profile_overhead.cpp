// Observability cost harness: host-side requests/second with the
// profiler / telemetry / flight-recorder layer (src/profile/) off, fully
// on, and off again.
//
// The perf contract (docs/OBSERVABILITY.md) is that every observability
// entry point sits behind a null-pointer or interval check in the clock
// path, or behind the tracer's inline event-mask test (the flight
// recorder is a ring sink of the tracer), so the shipping default —
// everything off — pays ~0 for the subsystem's existence, and even the
// everything-on configuration stays a small tax on a busy workload.  The harness measures the off path twice
// with the on mode between, and gates:
//
//   off        all observability off (the shipping default)
//   all_on     self-profiler + occupancy telemetry (every 64 cycles) +
//              flight recorder (depth 256)
//   off_rerun  all off again (noise bound for the off gate)
//
// Gates: the two off runs within 2% of each other (any systematic
// all-off cost repeats instead of averaging out), and all_on within 10%
// of the off baseline on the busy GUPS workload.
//
//   build/bench/bench_profile_overhead [--json <path|->]
//
// Scale knobs (env): HMCSIM_PROFBENCH_REQUESTS, HMCSIM_PROFBENCH_REPEATS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace hmcsim::bench {
namespace {

enum class Mode : int { Off, AllOn, OffRerun };

struct Measurement {
  std::string name;
  u64 completed{0};
  u64 errors{0};
  u64 sample_passes{0};
  u64 profiled_cycles{0};
  u64 flight_events{0};
  double seconds{0.0};

  double requests_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
  }
};

DeviceConfig bench_device(Mode mode) {
  DeviceConfig dc = table1_config_4link_8bank();
  dc.capacity_bytes = 0;
  dc.model_data = false;
  if (mode == Mode::AllOn) {
    dc.self_profile = true;
    dc.telemetry_interval_cycles = 64;
    dc.flight_recorder_depth = 256;
  }
  return dc;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::Off: return "off";
    case Mode::AllOn: return "all_on";
    default: return "off_rerun";
  }
}

using SteadyClock = std::chrono::steady_clock;

struct ModeState {
  Mode mode;
  Measurement m;
  Simulator sim;
  RandomAccessGenerator gen;

  ModeState(Mode mode_, const DeviceConfig& dc, const GeneratorConfig& gc)
      : mode(mode_), sim(make_sim_or_die(dc)), gen(gc) {
    m.name = mode_name(mode_);
  }
};

/// One timed burst of `requests` through an already-warm simulator.
double timed_burst(ModeState& st, u64 requests) {
  DriverConfig dcfg;
  dcfg.total_requests = requests;
  HostDriver driver(st.sim, st.gen, dcfg);
  const auto start = SteadyClock::now();
  const DriverResult r = driver.run();
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  st.m.completed += r.completed;
  st.m.errors += r.errors;
  return secs;
}

void collect_instrumentation(ModeState& st) {
  st.sim.flush_observability();
  if (const Telemetry* tel = st.sim.telemetry()) {
    st.m.sample_passes = tel->sample_passes();
  }
  if (const StageProfiler* prof = st.sim.profiler()) {
    st.m.profiled_cycles = prof->staged_cycles() + prof->fast_cycles();
  }
  if (const FlightRecorder* rec = st.sim.flight_recorder()) {
    for (u32 d = 0; d < rec->num_devices(); ++d) {
      st.m.flight_events += rec->recorded(d);
    }
  }
}

void print_measurement(const Measurement& m) {
  std::printf("%-10s %10llu reqs | %10.0f req/s | samples %llu | "
              "profiled cycles %llu | flight events %llu\n",
              m.name.c_str(), static_cast<unsigned long long>(m.completed),
              m.requests_per_sec(),
              static_cast<unsigned long long>(m.sample_passes),
              static_cast<unsigned long long>(m.profiled_cycles),
              static_cast<unsigned long long>(m.flight_events));
}

/// Percentage gap of the slower run below the faster one.
double pct_gap(double a, double b) {
  const double hi = std::max(a, b);
  return hi > 0.0 ? 100.0 * (hi - std::min(a, b)) / hi : 0.0;
}

void write_json(std::ostream& os, const std::vector<Measurement>& ms,
                double off_gap_pct, double on_overhead_pct) {
  os << "{\n  \"bench\": \"bench_profile_overhead\",\n  \"modes\": [\n";
  for (usize i = 0; i < ms.size(); ++i) {
    const Measurement& m = ms[i];
    os << "   {\"name\": \"" << m.name << "\", \"completed\": " << m.completed
       << ", \"errors\": " << m.errors
       << ", \"sample_passes\": " << m.sample_passes
       << ", \"profiled_cycles\": " << m.profiled_cycles
       << ", \"flight_events\": " << m.flight_events
       << ", \"seconds\": " << m.seconds
       << ", \"requests_per_sec\": " << m.requests_per_sec() << "}"
       << (i + 1 < ms.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"observability_off_overhead_pct\": " << off_gap_pct
     << ",\n  \"observability_on_overhead_pct\": " << on_overhead_pct
     << "\n}\n";
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

  const u64 requests = env_u64("HMCSIM_PROFBENCH_REQUESTS", 1 << 15);
  const u64 repeats = env_u64("HMCSIM_PROFBENCH_REPEATS", 5);

  GeneratorConfig gc;
  gc.capacity_bytes = bench_device(Mode::Off).derived_capacity();
  gc.request_bytes = 64;
  std::vector<ModeState> states;
  states.reserve(3);
  states.emplace_back(Mode::Off, bench_device(Mode::Off), gc);
  states.emplace_back(Mode::AllOn, bench_device(Mode::AllOn), gc);
  states.emplace_back(Mode::OffRerun, bench_device(Mode::OffRerun), gc);

  // Untimed warmup on every simulator: fault in the storage arenas and
  // settle the CPU before any timed round.
  for (ModeState& st : states) {
    (void)timed_burst(st, std::min<u64>(requests, 8192));
    st.m = Measurement{};
    st.m.name = mode_name(st.mode);
  }

  // Interleaved rounds: each round times every mode once, so frequency
  // scaling and scheduler drift hit all modes alike; best-of per mode then
  // discards whatever noise remains.  Any repeatable mode gap that
  // survives is systematic cost, not warmup order.
  std::vector<double> best(states.size(), 0.0);
  for (u64 rep = 0; rep < repeats; ++rep) {
    for (usize i = 0; i < states.size(); ++i) {
      const double secs = timed_burst(states[i], requests);
      if (rep == 0 || secs < best[i]) best[i] = secs;
    }
  }
  std::vector<Measurement> ms;
  for (usize i = 0; i < states.size(); ++i) {
    collect_instrumentation(states[i]);
    states[i].m.seconds = best[i] * static_cast<double>(repeats);
    ms.push_back(states[i].m);
  }
  for (const Measurement& m : ms) print_measurement(m);

  const double off_gap_pct =
      pct_gap(ms[0].requests_per_sec(), ms[2].requests_per_sec());
  const double off_baseline =
      0.5 * (ms[0].requests_per_sec() + ms[2].requests_per_sec());
  const double on_overhead_pct =
      ms[1].requests_per_sec() > 0.0
          ? 100.0 * (off_baseline / ms[1].requests_per_sec() - 1.0)
          : 0.0;
  std::printf("all-off overhead: %.2f%% (two off runs; gate: < 2%%)\n"
              "all-on overhead: %.2f%% (gate: < 10%%)\n",
              off_gap_pct, on_overhead_pct);

  int rc = 0;
  // Gate 1: the off path carries no observability cost.
  if (off_gap_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: observability-off runs differ by %.2f%% (>= 2%%); "
                 "the off path is paying for the profile layer\n",
                 off_gap_pct);
    rc = 1;
  }
  // Gate 2: the fully-instrumented simulator stays within a 10% tax.
  if (on_overhead_pct >= 10.0) {
    std::fprintf(stderr,
                 "FAIL: all-on overhead %.2f%% (>= 10%%) on the busy GUPS "
                 "workload\n",
                 on_overhead_pct);
    rc = 1;
  }
  // Gate 3: the harness measured real, instrumented work.
  for (const Measurement& m : ms) {
    if (m.completed != requests * repeats) {
      std::fprintf(stderr, "FAIL %s: %llu of %llu requests retired\n",
                   m.name.c_str(),
                   static_cast<unsigned long long>(m.completed),
                   static_cast<unsigned long long>(requests * repeats));
      rc = 1;
    }
  }
  if (ms[1].sample_passes == 0 || ms[1].profiled_cycles == 0) {
    std::fprintf(stderr, "FAIL all_on: instrumentation never engaged\n");
    rc = 1;
  }

  if (!json_path.empty()) {
    if (json_path == "-") {
      write_json(std::cout, ms, off_gap_pct, on_overhead_pct);
    } else {
      std::ofstream os(json_path);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 2;
      }
      write_json(os, ms, off_gap_pct, on_overhead_pct);
    }
  }
  return rc;
}

}  // namespace
}  // namespace hmcsim::bench

int main(int argc, char** argv) {
  return hmcsim::bench::run_main(argc, argv);
}
