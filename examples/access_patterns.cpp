// Access pattern study: how the HMC's three-dimensional structure responds
// to the memory access patterns real applications produce — the use case
// the paper's introduction motivates ("insightful guidance in designing and
// developing highly efficient systems, algorithms, and applications").
//
// Runs stream, strided, hot-spotted, pointer-chase and uniform random
// traffic against one device and compares throughput, conflicts, and
// latency.
//
// Usage: ./examples/access_patterns [requests]
#include <cstdio>
#include <memory>

#include "analysis/report.hpp"
#include "core/simulator.hpp"
#include "example_args.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

using namespace hmcsim;

namespace {

void run_pattern(const char* label, Generator& gen, u64 requests,
                 u32 max_outstanding = 512) {
  DeviceConfig dc;  // 4-link / 8-bank / 2 GB
  dc.model_data = false;
  Simulator sim;
  std::string diag;
  if (!ok(sim.init_simple(dc, &diag))) {
    std::fprintf(stderr, "init failed: %s\n", diag.c_str());
    return;
  }
  DriverConfig dcfg;
  dcfg.total_requests = requests;
  dcfg.max_outstanding_per_port = max_outstanding;
  dcfg.max_cycles = 100u * 1000 * 1000;
  HostDriver driver(sim, gen, dcfg);
  const DriverResult r = driver.run();
  const DeviceStats s = sim.total_stats();
  std::printf("%-14s %10llu cycles  %8.2f req/cyc  %10llu conflicts  "
              "lat %7.1f  %7.1f GB/s\n",
              label, static_cast<unsigned long long>(r.cycles),
              static_cast<double>(r.completed) /
                  static_cast<double>(r.cycles ? r.cycles : 1),
              static_cast<unsigned long long>(s.bank_conflicts),
              r.latency.mean(),
              effective_bandwidth_gbs(s.retired() * u64{64}, r.cycles));
}

}  // namespace

int main(int argc, char** argv) {
  const u64 requests =
      examples::number_arg(argc, argv, 1, u64{1} << 16, "[requests]");

  GeneratorConfig gc;
  gc.capacity_bytes = u64{2} << 30;
  gc.request_bytes = 64;
  gc.read_fraction = 0.5;

  std::printf("access pattern comparison, %llu x 64B requests, "
              "4-link/8-bank/2GB device\n\n",
              static_cast<unsigned long long>(requests));

  {
    StreamGenerator gen(gc);
    run_pattern("stream", gen, requests);
  }
  {
    // Stride of exactly one vault-rotation: consecutive requests hammer the
    // SAME vault — the adversarial case for the low-interleave map.
    StrideGenerator gen(gc, u64{64} * 16);
    run_pattern("stride(vault)", gen, requests);
  }
  {
    StrideGenerator gen(gc, 4096 + 64);
    run_pattern("stride(4K+64)", gen, requests);
  }
  {
    HotspotGenerator gen(gc, /*hot_fraction=*/0.9,
                         /*hot_bytes=*/u64{64} * 1024);
    run_pattern("hotspot90/64K", gen, requests);
  }
  {
    PointerChaseGenerator gen(gc);
    // Dependent loads: only one outstanding request at a time.
    run_pattern("ptr-chase", gen, requests / 16, /*max_outstanding=*/1);
  }
  {
    RandomAccessGenerator gen(gc);
    run_pattern("random", gen, requests);
  }

  std::printf("\nreading the table: streams and non-resonant strides spread "
              "across all vaults and\nsustain peak throughput; a "
              "vault-aligned stride defeats the low-interleave map "
              "and\nserializes on a single vault (~8x slower); hotspots "
              "lose throughput to bank\ncontention; pointer chasing exposes "
              "the raw round-trip latency because nothing\noverlaps.  (The "
              "conflict column counts stage-3 queued-conflict recognitions "
              "per cycle\n— queue pressure, not distinct collisions.)\n");
  return 0;
}
