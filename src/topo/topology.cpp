#include "topo/topology.hpp"

#include <deque>
#include <sstream>

namespace hmcsim {

Topology::Topology(u32 num_devices, u32 links_per_device)
    : num_devices_(num_devices),
      links_per_device_(links_per_device),
      endpoints_(usize{num_devices} * links_per_device) {}

Status Topology::connect_host(CubeId dev, LinkId link) {
  if (!valid_dev(dev) || !valid_link(link)) return Status::InvalidArgument;
  LinkEndpoint& e = ep(dev.get(), link.get());
  if (e.kind != EndpointKind::Unconnected) return Status::InvalidConfig;
  e = LinkEndpoint{EndpointKind::Host, 0, 0};
  finalized_ = false;
  return Status::Ok;
}

Status Topology::connect(CubeId a, LinkId la, CubeId b, LinkId lb) {
  if (!valid_dev(a) || !valid_dev(b) || !valid_link(la) || !valid_link(lb)) {
    return Status::InvalidArgument;
  }
  // Loopbacks have a high probability of inducing zombie response packets
  // that never reach a destination; refuse them outright (paper §V.B).
  if (a == b) return Status::InvalidConfig;
  LinkEndpoint& ea = ep(a.get(), la.get());
  LinkEndpoint& eb = ep(b.get(), lb.get());
  if (ea.kind != EndpointKind::Unconnected ||
      eb.kind != EndpointKind::Unconnected) {
    return Status::InvalidConfig;
  }
  ea = LinkEndpoint{EndpointKind::Device, b.get(), lb.get()};
  eb = LinkEndpoint{EndpointKind::Device, a.get(), la.get()};
  finalized_ = false;
  return Status::Ok;
}

Status Topology::disconnect(CubeId dev, LinkId link) {
  if (!valid_dev(dev) || !valid_link(link)) return Status::InvalidArgument;
  LinkEndpoint& e = ep(dev.get(), link.get());
  if (e.kind == EndpointKind::Device) {
    ep(e.peer_dev, e.peer_link) = LinkEndpoint{};
  }
  e = LinkEndpoint{};
  finalized_ = false;
  return Status::Ok;
}

const LinkEndpoint& Topology::endpoint(CubeId dev, LinkId link) const {
  return ep(dev.get(), link.get());
}

bool Topology::is_root(CubeId dev) const {
  for (u32 l = 0; l < links_per_device_; ++l) {
    if (ep(dev.get(), l).kind == EndpointKind::Host) return true;
  }
  return false;
}

std::vector<Topology::HostPort> Topology::host_ports() const {
  std::vector<HostPort> ports;
  for (u32 d = 0; d < num_devices_; ++d) {
    for (u32 l = 0; l < links_per_device_; ++l) {
      if (ep(d, l).kind == EndpointKind::Host) ports.push_back({d, l});
    }
  }
  return ports;
}

Status Topology::validate(std::string* diagnostic) const {
  if (num_devices_ == 0) {
    if (diagnostic) *diagnostic = "topology holds no devices";
    return Status::InvalidConfig;
  }
  // The user must configure at least one device that connects to a host
  // link; otherwise the host has no access to main memory.
  if (host_ports().empty()) {
    if (diagnostic) *diagnostic = "no host link configured on any device";
    return Status::InvalidConfig;
  }
  // Cross-check device-device symmetry (an internal invariant; connect()
  // maintains it, but user-assembled endpoint lists could break it).
  for (u32 d = 0; d < num_devices_; ++d) {
    for (u32 l = 0; l < links_per_device_; ++l) {
      const LinkEndpoint& e = ep(d, l);
      if (e.kind != EndpointKind::Device) continue;
      if (e.peer_dev >= num_devices_ || e.peer_link >= links_per_device_) {
        if (diagnostic) {
          std::ostringstream os;
          os << "device " << d << " link " << l << " points at nonexistent "
             << "peer " << e.peer_dev << ":" << e.peer_link;
          *diagnostic = os.str();
        }
        return Status::InvalidConfig;
      }
      const LinkEndpoint& back = ep(e.peer_dev, e.peer_link);
      if (back.kind != EndpointKind::Device || back.peer_dev != d ||
          back.peer_link != l) {
        if (diagnostic) {
          std::ostringstream os;
          os << "asymmetric link: " << d << ":" << l << " -> " << e.peer_dev
             << ":" << e.peer_link << " has no back edge";
          *diagnostic = os.str();
        }
        return Status::InvalidConfig;
      }
    }
  }
  return Status::Ok;
}

Status Topology::finalize() {
  const Status v = validate();
  if (!ok(v)) return v;

  route_next_.assign(usize{num_devices_} * num_devices_, kUnreachable);
  route_dist_.assign(usize{num_devices_} * num_devices_, kUnreachable);
  host_dist_.assign(num_devices_, kUnreachable);

  // BFS from every destination so route_next_[src][dst] holds the first
  // link on a shortest src->dst path.  O(D * (D + E)); device counts are
  // tiny (<= 7), this runs once per configuration.
  for (u32 dst = 0; dst < num_devices_; ++dst) {
    auto& dist_row = route_dist_;
    dist_row[usize{dst} * num_devices_ + dst] = 0;
    std::deque<u32> frontier{dst};
    while (!frontier.empty()) {
      const u32 cur = frontier.front();
      frontier.pop_front();
      const u32 cur_dist = route_dist_[usize{cur} * num_devices_ + dst];
      for (u32 l = 0; l < links_per_device_; ++l) {
        const LinkEndpoint& e = ep(cur, l);
        if (e.kind != EndpointKind::Device) continue;
        const u32 nb = e.peer_dev;
        u32& nb_dist = route_dist_[usize{nb} * num_devices_ + dst];
        if (nb_dist != kUnreachable) continue;
        nb_dist = cur_dist + 1;
        // The neighbor reaches `dst` by sending over the back edge.
        route_next_[usize{nb} * num_devices_ + dst] = e.peer_link;
        frontier.push_back(nb);
      }
    }
  }

  // Host distance: BFS from the set of root devices simultaneously.
  std::deque<u32> frontier;
  for (u32 d = 0; d < num_devices_; ++d) {
    if (is_root(CubeId{d})) {
      host_dist_[d] = 0;
      frontier.push_back(d);
    }
  }
  while (!frontier.empty()) {
    const u32 cur = frontier.front();
    frontier.pop_front();
    for (u32 l = 0; l < links_per_device_; ++l) {
      const LinkEndpoint& e = ep(cur, l);
      if (e.kind != EndpointKind::Device) continue;
      if (host_dist_[e.peer_dev] != kUnreachable) continue;
      host_dist_[e.peer_dev] = host_dist_[cur] + 1;
      frontier.push_back(e.peer_dev);
    }
  }

  // Equal-cost next hops for every (src, dst) pair: each device-wired link
  // whose peer sits one hop closer to `dst`.  Self routes stay empty.
  hop_start_.assign(usize{num_devices_} * num_devices_ + 1, 0);
  hop_links_.clear();
  for (u32 src = 0; src < num_devices_; ++src) {
    for (u32 dst = 0; dst < num_devices_; ++dst) {
      const usize pair = usize{src} * num_devices_ + dst;
      hop_start_[pair] = static_cast<u32>(hop_links_.size());
      const u32 my_dist = route_dist_[pair];
      if (src == dst || my_dist == kUnreachable) continue;
      for (u32 l = 0; l < links_per_device_; ++l) {
        const LinkEndpoint& e = ep(src, l);
        if (e.kind != EndpointKind::Device) continue;
        const u32 peer_dist =
            route_dist_[usize{e.peer_dev} * num_devices_ + dst];
        if (peer_dist != kUnreachable && peer_dist + 1 == my_dist) {
          hop_links_.push_back(LinkId{l});
        }
      }
    }
  }
  hop_start_.back() = static_cast<u32>(hop_links_.size());

  finalized_ = true;
  return Status::Ok;
}

std::optional<LinkId> Topology::next_hop(CubeId dev, CubeId dst) const {
  if (!finalized_ || !valid_dev(dev) || !valid_dev(dst)) return std::nullopt;
  const u32 link = route_next_[usize{dev.get()} * num_devices_ + dst.get()];
  if (link == kUnreachable) return std::nullopt;
  return LinkId{link};
}

std::optional<u32> Topology::hops(CubeId dev, CubeId dst) const {
  if (!finalized_ || !valid_dev(dev) || !valid_dev(dst)) return std::nullopt;
  const u32 d = route_dist_[usize{dev.get()} * num_devices_ + dst.get()];
  if (d == kUnreachable) return std::nullopt;
  return d;
}

std::optional<u32> Topology::host_distance(CubeId dev) const {
  if (!finalized_ || !valid_dev(dev)) return std::nullopt;
  const u32 d = host_dist_[dev.get()];
  if (d == kUnreachable) return std::nullopt;
  return d;
}

}  // namespace hmcsim
