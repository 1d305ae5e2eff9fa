// GUPS (Giga-Updates Per Second) on an HMC device.
//
// The RandomAccess/GUPS kernel — read-modify-write XOR updates at random
// table locations — is the canonical workload for high-bandwidth random
// memory, and exactly the application class the paper's introduction
// motivates for stacked memory.  Run it three ways and compare:
//
//   host-rmw   : RD16 + WR16 per update, one in flight per "thread"
//   host-deep  : the same, but 512 updates in flight (MSHR-style overlap);
//                note this relaxes atomicity across colliding updates
//   device-amo : one 2ADD8 atomic per update (in-memory update; HMC's
//                native read-modify-write commands)
//
// Usage: ./examples/gups [updates] [table_mb]
#include <cstdio>
#include <vector>

#include "common/random.hpp"
#include "core/memory_system.hpp"
#include "example_args.hpp"

using namespace hmcsim;

namespace {

struct GupsResult {
  Cycle cycles{0};
  u64 updates{0};

  [[nodiscard]] double gups(double clock_ghz = 1.25) const {
    if (cycles == 0) return 0.0;
    // updates / seconds = updates / (cycles / (clock * 1e9)); report as
    // billions per second.
    return static_cast<double>(updates) * clock_ghz /
           static_cast<double>(cycles);
  }
};

GupsResult run_host_rmw(u64 updates, u64 table_bytes, usize window) {
  DeviceConfig dc;
  MemorySystem mem(dc);
  SplitMix64 rng(2026);
  const u64 slots = table_bytes / 16;
  const Cycle start = mem.now();

  u64 issued = 0, completed = 0;
  while (completed < updates) {
    while (issued - completed < window && issued < updates) {
      const u64 addr = rng.next_below(slots) * 16;
      const u64 key = rng.next();
      // Read, then write back xor-ed — the classic two-packet update.
      (void)mem.read(addr, 16, [&mem, &completed, addr,
                                key](const MemTransaction& t) {
        const u64 data[2] = {t.data[0] ^ key, t.data[1]};
        (void)mem.write(addr, 16, data, [&completed](const MemTransaction&) {
          ++completed;
        });
      });
      ++issued;
    }
    mem.tick();
  }
  (void)mem.drain();
  return {mem.now() - start, updates};
}

GupsResult run_device_amo(u64 updates, u64 table_bytes) {
  DeviceConfig dc;
  Simulator sim;
  (void)sim.init_simple(dc);
  SplitMix64 rng(2026);
  const u64 slots = table_bytes / 16;
  const Cycle start = sim.now();

  PacketBuffer pkt;
  u64 sent = 0, completed = 0;
  while (completed < updates) {
    while (sent < updates) {
      const u64 addr = rng.next_below(slots) * 16;
      const u64 operand[2] = {rng.next(), 0};
      (void)build_memrequest(0, addr, static_cast<Tag>(sent % 512),
                             Command::TwoAdd8,
                             static_cast<u32>(sent % 4), operand, pkt);
      if (sim.send(0, static_cast<u32>(sent % 4), pkt) != Status::Ok) break;
      ++sent;
    }
    for (u32 l = 0; l < 4; ++l) {
      while (ok(sim.recv(0, l, pkt))) ++completed;
    }
    sim.clock();
  }
  return {sim.now() - start, updates};
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kArgs = "[updates] [table_mb]";
  const u64 updates =
      examples::number_arg(argc, argv, 1, u64{1} << 15, kArgs);
  const u64 table_mb =
      examples::number_arg(argc, argv, 2, 256, kArgs, ~u64{0} >> 20);
  const u64 table_bytes = table_mb << 20;

  std::printf("GUPS: %llu random 16B updates over a %llu MiB table "
              "(4-link/8-bank/2GB cube)\n\n",
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(table_mb));

  const GupsResult serial = run_host_rmw(updates, table_bytes, 1);
  std::printf("host-rmw (serial)   %10llu cycles   %.4f GUPS\n",
              static_cast<unsigned long long>(serial.cycles),
              serial.gups());

  const GupsResult deep = run_host_rmw(updates, table_bytes, 512);
  std::printf("host-rmw (512-deep) %10llu cycles   %.4f GUPS\n",
              static_cast<unsigned long long>(deep.cycles), deep.gups());

  const GupsResult amo = run_device_amo(updates, table_bytes);
  std::printf("device atomics      %10llu cycles   %.4f GUPS\n",
              static_cast<unsigned long long>(amo.cycles), amo.gups());

  std::printf("\nthe in-memory atomic path does one packet per update and "
              "keeps the\nread-modify-write inside the vault, so it beats "
              "even the deeply pipelined host\nloop — and unlike host-rmw "
              "overlap, colliding updates stay atomic.\n");
  return 0;
}
