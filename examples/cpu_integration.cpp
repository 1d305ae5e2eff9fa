// CPU-model integration demo: drives the MemorySystem facade the way a
// gem5-style out-of-order core model would — a reorder window of
// outstanding cache-line transactions, dependent pointer loads, and a
// writeback stream, with completion callbacks instead of packet plumbing.
//
// Usage: ./examples/cpu_integration [iterations]
#include <cstdio>
#include <deque>

#include "core/memory_system.hpp"
#include "example_args.hpp"

using namespace hmcsim;

namespace {

/// A toy "linked list" laid out in HMC memory: each 64-byte node stores the
/// address of the next node in its first word.
constexpr usize kNodes = 256;
constexpr u64 kNodeBytes = 64;
constexpr u64 kHeapBase = 0x100000;

u64 node_addr(usize index) { return kHeapBase + index * kNodeBytes; }

}  // namespace

int main(int argc, char** argv) {
  const u64 iterations =
      examples::number_arg(argc, argv, 1, kNodes, "[iterations]");

  DeviceConfig dc;  // 4-link / 8-bank / 2 GB
  MemorySystem mem(dc);

  // Phase 1: build the list with a permuted next-pointer chain, issued as a
  // burst of independent writes (a writeback stream).
  std::printf("phase 1: writing %zu list nodes...\n", kNodes);
  int writes_done = 0;
  for (usize i = 0; i < kNodes; ++i) {
    const usize next = (i * 97 + 31) % kNodes;  // coprime walk hits all nodes
    std::vector<u64> node(8, 0);
    node[0] = node_addr(next);
    node[1] = i;  // payload
    (void)mem.write(node_addr(i), kNodeBytes, node,
                    [&](const MemTransaction& t) {
                      if (!t.failed) ++writes_done;
                    });
  }
  if (!mem.drain()) {
    std::fprintf(stderr, "writeback stream did not drain\n");
    return 1;
  }
  std::printf("  %d writes complete at cycle %llu\n", writes_done,
              static_cast<unsigned long long>(mem.now()));

  // Phase 2: pointer-chase the list — each load depends on the previous
  // one, so the core can only hide latency with non-memory work.
  std::printf("phase 2: dependent pointer chase, %llu hops...\n",
              static_cast<unsigned long long>(iterations));
  const Cycle chase_start = mem.now();
  u64 current = node_addr(0);
  u64 checksum = 0;
  for (u64 hop = 0; hop < iterations; ++hop) {
    bool arrived = false;
    u64 next = 0;
    (void)mem.read(current, kNodeBytes, [&](const MemTransaction& t) {
      arrived = true;
      next = t.data[0];
      checksum += t.data[1];
    });
    while (!arrived) mem.tick();
    current = next;
  }
  const Cycle chase_cycles = mem.now() - chase_start;
  std::printf("  chase took %llu cycles (%.1f cycles/hop), checksum %llu\n",
              static_cast<unsigned long long>(chase_cycles),
              static_cast<double>(chase_cycles) /
                  static_cast<double>(iterations),
              static_cast<unsigned long long>(checksum));

  // Phase 3: the same traffic as an out-of-order burst — a 64-entry
  // "MSHR file" of independent loads shows how much latency the HMC's
  // vault/bank parallelism can absorb.
  std::printf("phase 3: 64-deep independent load window over the heap...\n");
  const Cycle burst_start = mem.now();
  u64 issued = 0, completed = 0;
  std::deque<usize> worklist;
  for (usize i = 0; i < kNodes; ++i) worklist.push_back(i);
  while (completed < kNodes) {
    while (issued - completed < 64 && !worklist.empty()) {
      const usize node = worklist.front();
      worklist.pop_front();
      (void)mem.read(node_addr(node), kNodeBytes,
                     [&](const MemTransaction& t) {
                       if (!t.failed) ++completed;
                     });
      ++issued;
    }
    mem.tick();
  }
  const Cycle burst_cycles = mem.now() - burst_start;
  std::printf("  burst of %zu loads took %llu cycles (%.1f cycles/load "
              "amortized)\n",
              kNodes, static_cast<unsigned long long>(burst_cycles),
              static_cast<double>(burst_cycles) / kNodes);

  std::printf("\ntakeaway: the dependent chase pays the full ~%0.f-cycle "
              "round trip per hop, while\nthe 64-deep window amortizes it "
              "to ~%.1f cycles — the bank/vault parallelism the\npaper's "
              "three-dimensional structure provides.\n",
              static_cast<double>(chase_cycles) /
                  static_cast<double>(iterations),
              static_cast<double>(burst_cycles) / kNodes);
  return 0;
}
