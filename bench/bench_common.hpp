// Shared plumbing for the experiment harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/number.hpp"
#include "core/simulator.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

namespace hmcsim::bench {

/// Environment override helper (e.g. HMCSIM_TABLE1_REQUESTS=33554432 for
/// the paper's full 2^25-request runs).  As strict as hmcsim_run's flags:
/// the whole token must convert (decimal, or hex after 0x), with no sign
/// and no overflow; anything else names the variable and exits 2.
inline u64 env_u64(const char* name, u64 fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  u64 parsed = 0;
  if (!parse_unsigned(value, parsed)) {
    std::fprintf(stderr, "error: %s expects an unsigned number, got '%s'\n",
                 name, value);
    std::exit(2);
  }
  return parsed;
}

struct NamedConfig {
  std::string label;
  DeviceConfig config;
};

/// The paper's four Table I device configurations, in table order.
inline std::vector<NamedConfig> table1_configs() {
  return {
      {"4-Link; 8-Bank; 2GB", table1_config_4link_8bank()},
      {"4-Link; 16-Bank; 4GB", table1_config_4link_16bank()},
      {"8-Link; 8-Bank; 4GB", table1_config_8link_8bank()},
      {"8-Link; 16-Bank; 8GB", table1_config_8link_16bank()},
  };
}

/// Run the paper's §VI.A random-access harness against a single device.
/// Tracing setup (if any) must be attached by the caller before invoking.
inline DriverResult run_random_access(Simulator& sim, u64 requests,
                                      double read_fraction = 0.5,
                                      InjectionPolicy policy =
                                          InjectionPolicy::RoundRobin) {
  GeneratorConfig gc;
  gc.capacity_bytes = sim.config().device.derived_capacity();
  gc.request_bytes = 64;
  gc.read_fraction = read_fraction;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = requests;
  dcfg.policy = policy;
  HostDriver driver(sim, gen, dcfg);
  return driver.run();
}

inline Simulator init_or_die(const DeviceConfig& device) {
  Simulator sim;
  std::string diag;
  if (!ok(sim.init_simple(device, &diag))) {
    std::fprintf(stderr, "simulator init failed: %s\n", diag.c_str());
    std::exit(1);
  }
  return sim;
}

inline Simulator make_sim_or_die(const DeviceConfig& device) {
  DeviceConfig dc = device;
  dc.model_data = false;  // random sweeps touch GBs; skip data payloads
  return init_or_die(dc);
}

}  // namespace hmcsim::bench
