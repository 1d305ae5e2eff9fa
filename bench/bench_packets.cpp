// Ablation A4: packet codec and CRC microbenchmarks (google-benchmark).
//
// The packet layer sits on the simulator's hot path (every request is
// encoded by the host and decoded at the link interface), so its
// throughput bounds overall simulation speed.
#include <benchmark/benchmark.h>

#include <vector>
#include <cstdint>

#include "common/random.hpp"
#include "packet/crc32.hpp"
#include "packet/packet.hpp"

namespace hmcsim {
namespace {

void BM_EncodeRead(benchmark::State& state) {
  RequestFields f;
  f.cmd = Command::Rd64;
  f.addr = 0x1234560;
  f.tag = 17;
  f.slid = 2;
  PacketBuffer pkt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_request(f, {}, pkt));
    benchmark::DoNotOptimize(pkt.words[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeRead);

void BM_EncodeWrite(benchmark::State& state) {
  const usize bytes = static_cast<usize>(state.range(0));
  RequestFields f;
  f.cmd = static_cast<Command>(static_cast<u8>(Command::Wr16) +
                               (bytes / 16 - 1));
  f.addr = 0x1234560;
  f.tag = 17;
  std::vector<u64> payload(bytes / 8, 0xAB);
  PacketBuffer pkt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_request(f, payload, pkt));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_EncodeWrite)->Arg(16)->Arg(64)->Arg(128);

void BM_DecodeRequest(benchmark::State& state) {
  RequestFields f;
  f.cmd = Command::Wr64;
  f.addr = 0x1234560;
  f.tag = 17;
  std::vector<u64> payload(8, 0xCD);
  PacketBuffer pkt;
  (void)encode_request(f, payload, pkt);
  RequestFields out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_request(pkt, out));
    benchmark::DoNotOptimize(out.addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeRequest);

void BM_Crc32k(benchmark::State& state) {
  const usize bytes = static_cast<usize>(state.range(0));
  std::vector<u8> data(bytes);
  SplitMix64 rng(1);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc::crc32k(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_Crc32k)->Arg(16)->Arg(144)->Arg(4096);

/// One packet's CRC through one engine, at state.range(0) FLITs.  Each CRC
/// feeds the next packet's first word, so a row times one CRC's latency,
/// as a send that checks the CRC before it goes on sees it.  The dispatch
/// in crc::crc32k_packet serves a FLIT count with the carry-less engine
/// only where its row here is faster.
void BM_PacketCrc(benchmark::State& state, bool carry_less) {
  const crc::Engine* engine =
      carry_less ? crc::carry_less() : &crc::slicing_by_8();
  if (engine == nullptr) {
    state.SkipWithError("no carry-less engine on this target or CPU");
    return;
  }
  std::vector<u64> words(2 * static_cast<usize>(state.range(0)));
  SplitMix64 rng(1);
  for (auto& w : words) w = rng.next();
  for (auto _ : state) {
    words[0] ^= engine->packet(words);
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PacketCrc, slicing_by_8, false)
    ->Arg(1)->Arg(2)->Arg(5)->Arg(9);
BENCHMARK_CAPTURE(BM_PacketCrc, carry_less, true)
    ->Arg(1)->Arg(2)->Arg(5)->Arg(9);

void BM_SealAndCheckCrc(benchmark::State& state) {
  RequestFields f;
  f.cmd = Command::Wr128;
  f.addr = 0xFF00;
  std::vector<u64> payload(16, 0x77);
  PacketBuffer pkt;
  (void)encode_request(f, payload, pkt);
  for (auto _ : state) {
    seal_crc(pkt);
    benchmark::DoNotOptimize(check_crc(pkt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SealAndCheckCrc);

void BM_GlibcRandomDraw(benchmark::State& state) {
  GlibcRandom rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GlibcRandomDraw);

}  // namespace
}  // namespace hmcsim

BENCHMARK_MAIN();
