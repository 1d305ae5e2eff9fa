// The paper's random-access memory test harness (§VI.A), runnable against
// any of the four Table I device configurations.
//
// Usage: ./examples/random_access [config] [requests] [--json]
//   config   : a | b | c | d
//              a = 4-link/ 8-bank/2GB    b = 4-link/16-bank/4GB
//              c = 8-link/ 8-bank/4GB    d = 8-link/16-bank/8GB
//   requests : number of 64-byte requests (default 1<<18)
//
// Prints the simulated runtime in clock cycles plus the contention trace
// counters the paper's Figure 5 visualizes.
#include <cstdio>
#include <cstring>
#include <string>

#include <iostream>

#include "analysis/json.hpp"
#include "analysis/report.hpp"
#include "core/simulator.hpp"
#include "example_args.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

using namespace hmcsim;

int main(int argc, char** argv) {
  char which = 'a';
  u64 requests = u64{1} << 18;
  bool json = false;
  if (argc > 1) which = static_cast<char>(std::tolower(argv[1][0]));
  requests = examples::number_arg(argc, argv, 2, requests,
                                  "[a|b|c|d] [requests] [--json]");
  for (int i = 3; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") json = true;
  }

  DeviceConfig dc;
  std::string label;
  switch (which) {
    case 'a': dc = table1_config_4link_8bank();  label = "4-Link; 8-Bank; 2GB";  break;
    case 'b': dc = table1_config_4link_16bank(); label = "4-Link; 16-Bank; 4GB"; break;
    case 'c': dc = table1_config_8link_8bank();  label = "8-Link; 8-Bank; 4GB";  break;
    case 'd': dc = table1_config_8link_16bank(); label = "8-Link; 16-Bank; 8GB"; break;
    default:
      std::fprintf(stderr, "unknown config '%c' (want a|b|c|d)\n", which);
      return 1;
  }
  // Random runs touch the whole address space; skip data modelling so the
  // resident set stays small (see DESIGN.md, substitutions).
  dc.model_data = false;

  Simulator sim;
  std::string diag;
  if (!ok(sim.init_simple(dc, &diag))) {
    std::fprintf(stderr, "init failed: %s\n", diag.c_str());
    return 1;
  }

  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  gc.request_bytes = 64;
  gc.read_fraction = 0.5;  // the paper's 50/50 mix
  RandomAccessGenerator gen(gc);

  DriverConfig drv;
  drv.total_requests = requests;
  HostDriver driver(sim, gen, drv);

  std::printf("config   : %s\n", label.c_str());
  std::printf("requests : %llu x 64B (50/50 read/write, glibc LCG)\n",
              static_cast<unsigned long long>(requests));

  const DriverResult result = driver.run();
  const DeviceStats stats = sim.total_stats();

  std::printf("\nsimulated runtime    : %llu clock cycles\n",
              static_cast<unsigned long long>(result.cycles));
  std::printf("requests completed   : %llu (%llu errors)\n",
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.errors));
  std::printf("reads / writes       : %llu / %llu\n",
              static_cast<unsigned long long>(stats.reads),
              static_cast<unsigned long long>(stats.writes));
  std::printf("bank conflicts       : %llu\n",
              static_cast<unsigned long long>(stats.bank_conflicts));
  std::printf("xbar request stalls  : %llu\n",
              static_cast<unsigned long long>(stats.xbar_rqst_stalls));
  std::printf("latency penalties    : %llu\n",
              static_cast<unsigned long long>(stats.latency_penalties));
  std::printf("host send stalls     : %llu\n",
              static_cast<unsigned long long>(result.send_stalls));
  std::printf("request latency      : mean %.1f, min %llu, max %llu cycles\n",
              result.latency.mean(),
              static_cast<unsigned long long>(
                  result.latency.count == 0 ? 0 : result.latency.min),
              static_cast<unsigned long long>(result.latency.max));
  std::printf("effective bandwidth  : %.1f GB/s (data payload at 1.25 GHz)\n",
              effective_bandwidth_gbs(
                  (stats.reads + stats.writes) * u64{64}, result.cycles));
  if (json) {
    std::printf("\nmachine-readable report:\n");
    write_stats_json(std::cout, sim);
  }
  return result.completed == requests ? 0 : 1;
}
