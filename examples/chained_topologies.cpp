// Device chaining demo: builds the paper's Figure 1 topologies (chain,
// ring, mesh, 2-D torus), routes traffic to every cube, and reports how the
// network shape changes request latency.
//
// Usage: ./examples/chained_topologies [requests_per_cube]
#include <cstdio>
#include <vector>

#include "core/simulator.hpp"
#include "example_args.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

using namespace hmcsim;

namespace {

void explore(const char* name, Topology topo, u32 links, u64 requests) {
  SimConfig sc;
  sc.num_devices = topo.num_devices();
  DeviceConfig dc;
  dc.num_links = links;
  dc.model_data = false;
  sc.device = dc;

  Simulator sim;
  std::string diag;
  if (!ok(sim.init(sc, std::move(topo), &diag))) {
    std::fprintf(stderr, "%s: init failed: %s\n", name, diag.c_str());
    return;
  }

  std::printf("\n== %s: %u cubes, host ports:", name, sim.num_devices());
  for (const auto& hp : sim.topology().host_ports()) {
    std::printf(" %u:%u", hp.dev, hp.link);
  }
  std::printf(" ==\n");
  std::printf("%6s %6s %12s %12s\n", "cube", "hops", "lat_mean", "lat_max");

  // Measure per-cube latency separately so the topology's distance
  // structure is visible.
  for (u32 cub = 0; cub < sim.num_devices(); ++cub) {
    GeneratorConfig gc;
    gc.capacity_bytes = dc.derived_capacity();
    RandomAccessGenerator gen(gc);
    DriverConfig dcfg;
    dcfg.total_requests = requests;
    dcfg.target_cub = cub;
    dcfg.max_cycles = 10u * 1000 * 1000;
    HostDriver driver(sim, gen, dcfg);
    const DriverResult r = driver.run();
    std::printf("%6u %6u %12.1f %12llu%s\n", cub,
                *sim.topology().host_distance(CubeId{cub}), r.latency.mean(),
                static_cast<unsigned long long>(r.latency.max),
                r.completed == requests ? "" : "  (INCOMPLETE)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const u64 requests =
      examples::number_arg(argc, argv, 1, 4096, "[requests_per_cube]");
  std::string err;

  explore("chain of 4", make_chain(4, 4, 2, 1, &err), 4, requests);
  explore("ring of 6", make_ring(6, 4, 2, &err), 4, requests);
  explore("2x3 mesh", make_mesh(2, 3, 4, 2, &err), 4, requests);
  explore("2x3 torus", make_torus2d(2, 3, 8, 2, &err), 8, requests);

  std::printf("\nNote how latency tracks the host-hop depth column: chaining "
              "buys capacity at a\nper-hop latency cost, and wraparound "
              "links (torus) flatten the distance profile.\n");
  return 0;
}
