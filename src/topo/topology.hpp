// Multi-device link topology (paper §III.A Figure 1, §V.B).
//
// HMC links may attach a device to a host processor or to another HMC
// device ("chaining"), permitting memory subsystems larger than one cube
// without changing the packetized transaction protocol.  HMC-Sim is
// *topologically agnostic*: it supports every wiring the user requests,
// including deliberately incorrect ones — those surface as in-band error
// responses at simulation time, not configuration-time rejections.
//
// Hard constraints the simulator does enforce (paper §V.B):
//   * linked devices must live in the same simulator object (implicit here:
//     a Topology describes one object);
//   * loopback links (a device linked to itself) are rejected — they breed
//     zombie response packets that never reach a destination;
//   * at least one device must expose a host link, or the host would have
//     no access to main memory.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace hmcsim {

enum class EndpointKind : u8 {
  Unconnected,  ///< link is wired to nothing; packets cannot use it
  Host,         ///< link attaches to the host processor
  Device,       ///< link attaches to a peer device (chaining)
};

/// What one device link is wired to.
struct LinkEndpoint {
  EndpointKind kind{EndpointKind::Unconnected};
  u32 peer_dev{0};   ///< valid when kind == Device
  u32 peer_link{0};  ///< valid when kind == Device

  bool operator==(const LinkEndpoint&) const = default;
};

class Topology {
 public:
  Topology() = default;
  Topology(u32 num_devices, u32 links_per_device);

  [[nodiscard]] u32 num_devices() const { return num_devices_; }
  [[nodiscard]] u32 links_per_device() const { return links_per_device_; }

  /// Wire a link to the host.  Fails on bad indices or an already-wired
  /// link.
  Status connect_host(CubeId dev, LinkId link);

  /// Wire two device links together (both directions).  Rejects loopbacks
  /// (a == b) and already-wired links.
  Status connect(CubeId a, LinkId la, CubeId b, LinkId lb);

  /// Unwire a link (and its peer when device-connected).
  Status disconnect(CubeId dev, LinkId link);

  [[nodiscard]] const LinkEndpoint& endpoint(CubeId dev, LinkId link) const;

  /// A root device exposes at least one host link (paper §IV.C: stages 2
  /// and 5 treat root and child devices differently).
  [[nodiscard]] bool is_root(CubeId dev) const;

  /// Every host link on the topology, in (device, link) order.  This is the
  /// namespace the workload drivers inject over.
  struct HostPort {
    u32 dev;
    u32 link;
    bool operator==(const HostPort&) const = default;
  };
  [[nodiscard]] std::vector<HostPort> host_ports() const;

  /// Check the hard constraints.  Unreachable devices are NOT an error
  /// (deliberate misconfiguration is supported); a missing host link is.
  [[nodiscard]] Status validate(std::string* diagnostic = nullptr) const;

  /// Compute BFS route tables over the device-device graph.  Must be called
  /// (again) after the wiring changes; queries below require it.
  Status finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Next-hop link from `dev` toward cube `dst`, or nullopt when `dst` is
  /// unreachable (the runtime turns that into an ERROR response).
  [[nodiscard]] std::optional<LinkId> next_hop(CubeId dev, CubeId dst) const;

  /// ALL shortest-path next-hop links from `dev` toward `dst` (equal-cost
  /// multipath over parallel trunk links), in link order; empty when
  /// unreachable.  The simulator spreads request streams across these
  /// deterministically so per-(link, bank) packet order is preserved.  The
  /// span points into a table finalize() builds and stays valid until the
  /// next finalize().
  [[nodiscard]] std::span<const LinkId> next_hops(CubeId dev,
                                                  CubeId dst) const {
    if (!finalized_ || !valid_dev(dev) || !valid_dev(dst)) return {};
    const usize pair = usize{dev.get()} * num_devices_ + dst.get();
    return {hop_links_.data() + hop_start_[pair],
            hop_start_[pair + 1] - hop_start_[pair]};
  }

  /// Device-to-device hop distance, or nullopt when unreachable.
  [[nodiscard]] std::optional<u32> hops(CubeId dev, CubeId dst) const;

  /// Hop distance from the nearest host port to `dev` (how deep in the
  /// chain a device sits); nullopt when no host can reach it.
  [[nodiscard]] std::optional<u32> host_distance(CubeId dev) const;

 private:
  [[nodiscard]] bool valid_dev(CubeId d) const {
    return d.get() < num_devices_;
  }
  [[nodiscard]] bool valid_link(LinkId l) const {
    return l.get() < links_per_device_;
  }
  [[nodiscard]] LinkEndpoint& ep(u32 dev, u32 link) {
    return endpoints_[usize{dev} * links_per_device_ + link];
  }
  [[nodiscard]] const LinkEndpoint& ep(u32 dev, u32 link) const {
    return endpoints_[usize{dev} * links_per_device_ + link];
  }

  u32 num_devices_{0};
  u32 links_per_device_{0};
  std::vector<LinkEndpoint> endpoints_;

  bool finalized_{false};
  static constexpr u32 kUnreachable = ~u32{0};
  /// route_[src * num_devices + dst] = link index of next hop (or ~0).
  std::vector<u32> route_next_;
  std::vector<u32> route_dist_;
  std::vector<u32> host_dist_;
  /// next_hops(src, dst) is hop_links_[hop_start_[p] .. hop_start_[p + 1])
  /// with p = src * num_devices + dst.
  std::vector<u32> hop_start_;
  std::vector<LinkId> hop_links_;
};

// ---------------------------------------------------------------------------
// Figure 1 builders.  Each returns a finalized topology; `error` (when
// non-null) receives a diagnostic if the parameters are unbuildable, and the
// returned topology has num_devices() == 0 in that case.
// ---------------------------------------------------------------------------

/// One device, every link attached to the host (Figure 1 "Simple").
[[nodiscard]] Topology make_simple(u32 links, std::string* error = nullptr);

/// Devices chained in a line; the host holds `host_links` links of device 0;
/// each adjacent pair is joined by `trunk_links` links.
[[nodiscard]] Topology make_chain(u32 devices, u32 links, u32 host_links = 2,
                                  u32 trunk_links = 1,
                                  std::string* error = nullptr);

/// Devices in a cycle (Figure 1 "Ring"); host on device 0.
[[nodiscard]] Topology make_ring(u32 devices, u32 links, u32 host_links = 2,
                                 std::string* error = nullptr);

/// rows x cols mesh (Figure 1 "Mesh"); host on device (0,0).  Interior
/// nodes of a 4-link mesh use all four links for neighbors, so host_links
/// must fit the corner's spare links.
[[nodiscard]] Topology make_mesh(u32 rows, u32 cols, u32 links,
                                 u32 host_links = 2,
                                 std::string* error = nullptr);

/// rows x cols 2-D torus (Figure 1 "2D Torus"); host on device (0,0).
/// Requires 8-link devices when rows > 1 and cols > 1 plus a host port.
[[nodiscard]] Topology make_torus2d(u32 rows, u32 cols, u32 links,
                                    u32 host_links = 2,
                                    std::string* error = nullptr);

}  // namespace hmcsim
