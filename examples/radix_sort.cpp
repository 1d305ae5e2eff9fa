// Out-of-place LSD radix sort running entirely in HMC memory.
//
// The paper describes its random-access workload as "similar to a parallel
// random number sort of 2GB of data" (§VI.A).  This example runs the real
// thing at reduced scale: N 32-bit keys live in the cube (one key per
// 16-byte block), and each radix pass streams them out in 128-byte reads
// (sequential — the low-interleave map's best case) and scatters them back
// one block per key (random writes — exactly the access pattern the paper
// measures).  All data movement goes through the full packet pipeline via
// the MemorySystem facade.
//
// Usage: ./examples/radix_sort [keys]
#include <cstdio>
#include <array>
#include <vector>

#include "common/random.hpp"
#include "core/memory_system.hpp"
#include "example_args.hpp"

using namespace hmcsim;

namespace {

constexpr u64 kTableA = 0x0000000;
constexpr u64 kTableB = 0x4000000;  // 64 MiB apart
constexpr u64 kBlockBytes = 16;     // one key per block
constexpr u64 kStreamBytes = 128;   // 8 keys per streaming read
constexpr u32 kRadixBits = 8;
constexpr u32 kBuckets = 1 << kRadixBits;

u64 key_addr(u64 table, u64 index) { return table + index * kBlockBytes; }

}  // namespace

int main(int argc, char** argv) {
  const u64 keys = examples::number_arg(argc, argv, 1, u64{1} << 15, "[keys]");

  DeviceConfig dc;  // 4-link / 8-bank / 2 GB
  MemorySystem mem(dc);

  std::printf("radix sort of %llu 32-bit keys in HMC memory "
              "(%u-bit digits, %u passes)\n\n",
              static_cast<unsigned long long>(keys), kRadixBits,
              32 / kRadixBits);

  // Phase 0: populate table A with random keys.
  SplitMix64 rng(4242);
  for (u64 i = 0; i < keys; ++i) {
    const u64 data[2] = {rng.next() & 0xffffffffu, 0};
    (void)mem.write(key_addr(kTableA, i), kBlockBytes, data, nullptr);
    if (i % 512 == 511) (void)mem.drain();  // bound in-flight state
  }
  if (!mem.drain()) return 1;
  const Cycle sort_start = mem.now();

  u64 src = kTableA, dst = kTableB;
  for (u32 pass = 0; pass < 32 / kRadixBits; ++pass) {
    const u32 shift = pass * kRadixBits;
    const Cycle pass_start = mem.now();

    // Stage 1: histogram via 128-byte streaming reads (8 keys each).
    std::vector<u64> counts(kBuckets, 0);
    {
      const u64 reads = (keys * kBlockBytes + kStreamBytes - 1) /
                        kStreamBytes;
      u64 issued = 0, completed = 0;
      while (completed < reads) {
        while (issued < reads && issued - completed < 128) {
          (void)mem.read(key_addr(src, issued * 8), kStreamBytes,
                         [&counts, shift, &completed,
                          &keys, issued](const MemTransaction& t) {
                           for (u64 k = 0; k < 8; ++k) {
                             if (issued * 8 + k >= keys) break;
                             ++counts[(t.data[k * 2] >> shift) &
                                      (kBuckets - 1)];
                           }
                           ++completed;
                         });
          ++issued;
        }
        mem.tick();
      }
    }

    // Prefix sums -> destination slot of each bucket's next key.
    std::vector<u64> offsets(kBuckets, 0);
    for (u32 d = 1; d < kBuckets; ++d) {
      offsets[d] = offsets[d - 1] + counts[d - 1];
    }

    // Stage 2: scatter.  Stream the source again; each key becomes one
    // random 16-byte write into its bucket's next slot.  Radix partitioning
    // must be STABLE, but read responses arrive out of order — so completed
    // chunks land in a reorder buffer and keys are scattered strictly in
    // source order.
    {
      const u64 reads = (keys * kBlockBytes + kStreamBytes - 1) /
                        kStreamBytes;
      std::vector<std::array<u64, 8>> chunk(reads);
      std::vector<bool> arrived(reads, false);
      u64 issued = 0, cursor = 0;
      u64 writes_issued = 0, writes_done = 0;
      while (cursor < reads || writes_done < writes_issued) {
        while (issued < reads && issued - cursor < 64) {
          (void)mem.read(key_addr(src, issued * 8), kStreamBytes,
                         [&chunk, &arrived, src](const MemTransaction& t) {
                           const u64 index =
                               (t.addr - src) / kStreamBytes;
                           for (u64 k = 0; k < 8; ++k) {
                             chunk[index][k] = t.data[k * 2];
                           }
                           arrived[index] = true;
                         });
          ++issued;
        }
        // Drain the in-order prefix of the reorder buffer.
        while (cursor < reads && arrived[cursor] &&
               writes_issued - writes_done < 256) {
          for (u64 k = 0; k < 8; ++k) {
            const u64 key_index = cursor * 8 + k;
            if (key_index >= keys) break;
            const u64 key = chunk[cursor][k];
            const u32 digit =
                static_cast<u32>((key >> shift) & (kBuckets - 1));
            const u64 slot = offsets[digit]++;
            const u64 block[2] = {key, 0};
            (void)mem.write(key_addr(dst, slot), kBlockBytes, block,
                            [&writes_done](const MemTransaction&) {
                              ++writes_done;
                            });
            ++writes_issued;
          }
          ++cursor;
        }
        mem.tick();
      }
    }
    if (!mem.drain()) return 1;

    std::printf("pass %u (bits %2u..%2u): %llu cycles\n", pass, shift,
                shift + kRadixBits - 1,
                static_cast<unsigned long long>(mem.now() - pass_start));
    std::swap(src, dst);
  }
  const Cycle sort_cycles = mem.now() - sort_start;

  // Verify sortedness straight from device memory.
  u64 prev = 0;
  bool sorted = true;
  for (u64 i = 0; i < keys && sorted; ++i) {
    u64 word = 0;
    if (!mem.simulator().device(0).store.read_words(key_addr(src, i),
                                                    {&word, 1}) ||
        word < prev) {
      sorted = false;
      break;
    }
    prev = word;
  }

  const DeviceStats s = mem.simulator().total_stats();
  std::printf("\nsorted %llu keys in %llu cycles (%.2f cycles/key) — %s\n",
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(sort_cycles),
              static_cast<double>(sort_cycles) / static_cast<double>(keys),
              sorted ? "VERIFIED SORTED" : "NOT SORTED!");
  std::printf("device saw %llu reads / %llu writes, %llu bank conflicts, "
              "%.1f MB of bank traffic\n",
              static_cast<unsigned long long>(s.reads),
              static_cast<unsigned long long>(s.writes),
              static_cast<unsigned long long>(s.bank_conflicts),
              static_cast<double>(s.bytes_read + s.bytes_written) / 1e6);
  return sorted ? 0 : 1;
}
