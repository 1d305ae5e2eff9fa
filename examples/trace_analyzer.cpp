// Offline trace analyzer: revisit a previously captured HMC-Sim text trace
// and reproduce the paper's analyses from it — "entire application memory
// traces can be revisited and analyzed for accuracy, latency
// characteristics, bandwidth utilization and overall transaction
// efficiency" (§IV.E).
//
// Usage: ./examples/trace_analyzer <trace.txt> [vaults] [bucket_width]
//        ./examples/trace_analyzer --demo      (generates + analyzes one)
//
// Prints per-event totals, the Figure 5 per-vault series summary, and
// (optionally) the full CSV to stdout with --csv.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "analysis/report.hpp"
#include "core/simulator.hpp"
#include "example_args.hpp"
#include "trace/reader.hpp"
#include "trace/series.hpp"
#include "workload/driver.hpp"

using namespace hmcsim;

namespace {

/// Run a short random-access workload with full tracing and return the
/// trace text (the --demo path).
std::string generate_demo_trace() {
  DeviceConfig dc;
  dc.model_data = false;
  Simulator sim;
  (void)sim.init_simple(dc);
  std::ostringstream trace_text;
  sim.tracer().set_level(TraceLevel::Events);
  sim.tracer().add_sink(std::make_shared<TextSink>(trace_text));

  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 1 << 13;
  HostDriver driver(sim, gen, dcfg);
  (void)driver.run();
  sim.tracer().flush();
  return trace_text.str();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kArgs = "<trace.txt> [vaults] [bucket_width] [--csv]";
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s %s\n       %s --demo\n", argv[0], kArgs,
                 argv[0]);
    return 1;
  }

  u32 vaults = 16;
  Cycle bucket_width = 64;
  bool csv = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (i == 2) {
      vaults = static_cast<u32>(examples::number_arg(
          argc, argv, i, vaults, kArgs, std::numeric_limits<u32>::max()));
    } else if (i == 3) {
      bucket_width = examples::number_arg(argc, argv, i, bucket_width, kArgs);
    }
  }

  std::string text;
  if (std::strcmp(argv[1], "--demo") == 0) {
    std::printf("generating a demo trace (8192 random requests)...\n");
    text = generate_demo_trace();
  } else {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  // Pass 1: per-event totals.
  CountingSink counts;
  std::istringstream first_pass(text);
  usize malformed = 0;
  const usize replayed = replay_trace(first_pass, counts, &malformed);
  std::printf("replayed %zu records (%zu unparseable lines)\n\n", replayed,
              malformed);
  std::printf("%-18s %12s\n", "event", "count");
  for (usize e = 0; e < kTraceEventCount; ++e) {
    const auto event = static_cast<TraceEvent>(e);
    if (counts.count(event) == 0) continue;
    std::printf("%-18s %12llu\n", std::string(to_string(event)).c_str(),
                static_cast<unsigned long long>(counts.count(event)));
  }

  // Pass 2: Figure 5 series reconstruction.
  VaultSeriesSink series(vaults, bucket_width);
  std::istringstream second_pass(text);
  (void)replay_trace(second_pass, series);
  const Fig5Summary s = summarize_series(series);
  std::printf("\nFigure-5 series over %llu cycles (%zu buckets of %llu):\n",
              static_cast<unsigned long long>(s.cycles),
              series.buckets().size(),
              static_cast<unsigned long long>(bucket_width));
  std::printf("  conflicts %llu | reads %llu | writes %llu | "
              "xbar stalls %llu | latency events %llu\n",
              static_cast<unsigned long long>(s.total_conflicts),
              static_cast<unsigned long long>(s.total_reads),
              static_cast<unsigned long long>(s.total_writes),
              static_cast<unsigned long long>(s.total_xbar_stalls),
              static_cast<unsigned long long>(s.total_latency_penalties));
  std::printf("  per-cycle means: conflicts %.2f, reads %.2f, writes %.2f\n",
              s.mean_conflicts_per_cycle, s.mean_reads_per_cycle,
              s.mean_writes_per_cycle);

  if (csv) {
    std::printf("\n");
    write_fig5_csv(std::cout, series);
  }
  return 0;
}
