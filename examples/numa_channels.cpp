// NUMA / multi-channel demo: several independent HMC-Sim objects per host.
//
// "An application may contain more than one HMC-Sim object in order to
// simulate architectural characteristics such as non-uniform memory
// access.  ...  This is analogous to the current system on chip
// methodology of utilizing multiple memory channels per socket."
// (paper §IV.A / §IV.C)
//
// Two cubes behind two channels: the near channel is driven every host
// step; the far channel sits behind a fixed interconnect delay the host
// model adds before injecting and after receiving.  Each simulator keeps
// its own clock domain — they are never ticked in lockstep.
//
// Usage: ./examples/numa_channels [requests_per_channel]
#include <cstdio>
#include <deque>

#include "common/random.hpp"
#include "core/simulator.hpp"
#include "example_args.hpp"

using namespace hmcsim;

namespace {

/// One memory channel: an independent simulator plus the socket-side
/// interconnect delay to reach it.
struct Channel {
  const char* name;
  Simulator sim;
  Cycle interconnect_delay;

  // Socket-side delay lines modelling the extra hop distance.
  struct Pending {
    Cycle due;
    PacketBuffer pkt;
  };
  std::deque<Pending> outbound;  // host -> channel
  Cycle host_clock{0};

  u64 sent{0}, completed{0};
  Cycle latency_sum{0};
  std::array<Cycle, 512> sent_at{};
};

void step(Channel& ch) {
  // Deliver delayed outbound packets whose interconnect time has elapsed.
  while (!ch.outbound.empty() && ch.outbound.front().due <= ch.host_clock) {
    if (ch.sim.send(0, 0, ch.outbound.front().pkt) == Status::Stalled) break;
    ch.outbound.pop_front();
  }
  // Collect responses (they pay the interconnect delay on the way back,
  // accounted in the latency arithmetic below).
  PacketBuffer pkt;
  while (ok(ch.sim.recv(0, 0, pkt))) {
    ResponseFields f;
    if (ok(decode_response(pkt, f))) {
      ++ch.completed;
      ch.latency_sum += (ch.host_clock - ch.sent_at[f.tag]) +
                        2 * ch.interconnect_delay;
    }
  }
  // Each channel is its own clock domain (paper §IV.C): tick it on the
  // host's cadence, entirely independent of the other channel.
  ch.sim.clock();
  ++ch.host_clock;
}

}  // namespace

int main(int argc, char** argv) {
  const u64 requests =
      examples::number_arg(argc, argv, 1, 8192, "[requests_per_channel]");

  Channel near{"near", {}, /*interconnect_delay=*/2, {}, 0, 0, 0, 0, {}};
  Channel far{"far", {}, /*interconnect_delay=*/40, {}, 0, 0, 0, 0, {}};
  DeviceConfig dc;
  dc.model_data = false;
  if (!ok(near.sim.init_simple(dc)) || !ok(far.sim.init_simple(dc))) {
    std::fprintf(stderr, "init failed\n");
    return 1;
  }

  std::printf("two independent HMC-Sim objects as NUMA channels, "
              "%llu reads each\n\n",
              static_cast<unsigned long long>(requests));

  SplitMix64 rng(13);
  for (Channel* ch : {&near, &far}) {
    while (ch->completed < requests) {
      if (ch->sent < requests && ch->sent - ch->completed < 256) {
        PacketBuffer pkt;
        const Tag tag = static_cast<Tag>(ch->sent % 512);
        (void)build_memrequest(0, rng.next_below(1u << 28) * 16, tag,
                               Command::Rd16, 0, {}, pkt);
        ch->sent_at[tag] = ch->host_clock;
        ch->outbound.push_back(
            {ch->host_clock + ch->interconnect_delay, pkt});
        ++ch->sent;
      }
      step(*ch);
    }
    std::printf("%-5s channel: %7llu host cycles, mean latency %6.1f "
                "(interconnect %llu each way)\n",
                ch->name,
                static_cast<unsigned long long>(ch->host_clock),
                static_cast<double>(ch->latency_sum) /
                    static_cast<double>(ch->completed),
                static_cast<unsigned long long>(ch->interconnect_delay));
  }

  // The two objects advanced independently — their device clocks differ
  // from each other and from the host's step count only by how the host
  // chose to drive them.
  std::printf("\nclock domains: near device @%llu, far device @%llu — "
              "each object keeps its own\n64-bit clock, advanced only by "
              "its own hmcsim_clock calls (paper §IV.C).\n",
              static_cast<unsigned long long>(near.sim.now()),
              static_cast<unsigned long long>(far.sim.now()));
  return 0;
}
