// Shared helpers for core simulator tests.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/simulator.hpp"

namespace hmcsim::test {

/// A small, fast device: 4 links, 8 banks, shallow queues, short bank busy
/// time.  Geometry is still spec-conformant (16 vaults, 2 GB).
inline DeviceConfig small_device() {
  DeviceConfig dc;
  dc.num_links = 4;
  dc.banks_per_vault = 8;
  dc.xbar_depth = 8;
  dc.vault_depth = 4;
  dc.bank_busy_cycles = 2;
  dc.xbar_flits_per_cycle = 16;
  return dc;
}

/// small_device() under the link retry protocol, the only source of link
/// errors.  The spec retry machine always replays, so it needs a budget.
inline DeviceConfig proto_device() {
  DeviceConfig dc = small_device();
  dc.link_protocol = true;
  dc.link_retry_limit = 8;
  return dc;
}

/// Simulator with one small device, all links host-attached.
inline Simulator make_simple_sim(DeviceConfig dc = small_device()) {
  Simulator sim;
  std::string diag;
  EXPECT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;
  return sim;
}

/// Encode-and-send helper; fails the test on encode errors.
inline Status send_request(Simulator& sim, u32 dev, u32 link, Command cmd,
                           PhysAddr addr, Tag tag, u32 cub = 0,
                           std::vector<u64> payload = {}) {
  payload.resize(request_data_bytes(cmd) / 8, 0);
  PacketBuffer pkt;
  const Status es = build_memrequest(cub, addr, tag, cmd, link, payload, pkt);
  EXPECT_EQ(es, Status::Ok);
  if (!ok(es)) return es;
  return sim.send(dev, link, pkt);
}

/// Clock until a response appears on (dev, link) or `max_cycles` elapse.
inline std::optional<ResponseFields> await_response(
    Simulator& sim, u32 dev, u32 link, u32 max_cycles = 200,
    PacketBuffer* raw = nullptr) {
  PacketBuffer pkt;
  for (u32 i = 0; i < max_cycles; ++i) {
    if (ok(sim.recv(dev, link, pkt))) {
      ResponseFields f;
      EXPECT_EQ(decode_response(pkt, f), Status::Ok);
      if (raw != nullptr) *raw = pkt;
      return f;
    }
    sim.clock();
  }
  return std::nullopt;
}

/// Drain every pending response on every host port until the simulator is
/// quiescent or the cycle budget runs out.  Returns the drained responses.
inline std::vector<ResponseFields> drain_all(Simulator& sim,
                                             u32 max_cycles = 500) {
  std::vector<ResponseFields> responses;
  const auto ports = sim.topology().host_ports();
  for (u32 i = 0; i < max_cycles; ++i) {
    PacketBuffer pkt;
    for (const auto& p : ports) {
      while (ok(sim.recv(p.dev, p.link, pkt))) {
        ResponseFields f;
        EXPECT_EQ(decode_response(pkt, f), Status::Ok);
        responses.push_back(f);
      }
    }
    if (sim.quiescent()) break;
    sim.clock();
  }
  return responses;
}

}  // namespace hmcsim::test
