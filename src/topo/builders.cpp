// Builders for the paper's Figure 1 device topologies.
#include <string>

#include "common/limits.hpp"
#include "topo/topology.hpp"

namespace hmcsim {
namespace {

Topology fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return Topology{};
}

// The 3-bit CUB field addresses spec::kMaxDevices cubes (the top id is
// reserved for hosts).  Every builder checks the count before allocating,
// so an absurd request fails at once instead of exhausting memory.
bool over_device_cap(u64 devices, const char* shape, std::string* error) {
  if (devices <= spec::kMaxDevices) return false;
  if (error) {
    *error = std::string(shape) + " of " + std::to_string(devices) +
             " devices exceeds " + std::to_string(spec::kMaxDevices) +
             " (the 3-bit CUB field reserves the top id for hosts)";
  }
  return true;
}

bool finalize_or_fail(Topology& t, std::string* error) {
  std::string diag;
  if (!ok(t.validate(&diag))) {
    if (error) *error = diag;
    return false;
  }
  return ok(t.finalize());
}

}  // namespace

Topology make_simple(u32 links, std::string* error) {
  Topology t(1, links);
  for (u32 l = 0; l < links; ++l) {
    (void)t.connect_host(CubeId{0}, LinkId{l});
  }
  if (!finalize_or_fail(t, error)) return Topology{};
  return t;
}

Topology make_chain(u32 devices, u32 links, u32 host_links, u32 trunk_links,
                    std::string* error) {
  if (devices == 0) return fail(error, "chain needs at least one device");
  if (over_device_cap(devices, "chain", error)) return Topology{};
  if (host_links == 0) return fail(error, "chain needs a host port");
  // Device 0 spends host_links on the host and trunk_links downstream;
  // interior devices spend 2*trunk_links.
  if (devices > 1 && (host_links + trunk_links > links ||
                      2 * trunk_links > links)) {
    return fail(error, "link budget exceeded for chain");
  }
  if (devices == 1 && host_links > links) {
    return fail(error, "link budget exceeded for chain");
  }
  Topology t(devices, links);
  for (u32 l = 0; l < host_links; ++l) {
    (void)t.connect_host(CubeId{0}, LinkId{l});
  }
  for (u32 d = 0; d + 1 < devices; ++d) {
    // Upstream device uses its top trunk_links; downstream its bottom ones.
    for (u32 k = 0; k < trunk_links; ++k) {
      const u32 up_link = links - trunk_links + k;
      const u32 down_link = k;
      if (!ok(t.connect(CubeId{d}, LinkId{up_link}, CubeId{d + 1},
                        LinkId{down_link}))) {
        return fail(error, "chain wiring conflict");
      }
    }
  }
  if (!finalize_or_fail(t, error)) return Topology{};
  return t;
}

Topology make_ring(u32 devices, u32 links, u32 host_links, std::string* error) {
  if (devices < 3) return fail(error, "a ring needs at least three devices");
  if (over_device_cap(devices, "ring", error)) return Topology{};
  // Every device spends two links on ring neighbors; device 0 additionally
  // hosts.  Link assignment: link (links-1) goes clockwise, link (links-2)
  // counterclockwise.
  if (host_links + 2 > links) {
    return fail(error, "link budget exceeded for ring");
  }
  Topology t(devices, links);
  for (u32 l = 0; l < host_links; ++l) {
    (void)t.connect_host(CubeId{0}, LinkId{l});
  }
  for (u32 d = 0; d < devices; ++d) {
    const u32 next = (d + 1) % devices;
    if (!ok(t.connect(CubeId{d}, LinkId{links - 1}, CubeId{next},
                      LinkId{links - 2}))) {
      return fail(error, "ring wiring conflict");
    }
  }
  if (!finalize_or_fail(t, error)) return Topology{};
  return t;
}

Topology make_mesh(u32 rows, u32 cols, u32 links, u32 host_links,
                   std::string* error) {
  if (rows == 0 || cols == 0) return fail(error, "mesh dimensions are zero");
  if (over_device_cap(u64{rows} * cols, "mesh", error)) return Topology{};
  const u32 devices = rows * cols;
  // Link plan per node: 0 = west, 1 = east, 2 = north, 3 = south; host links
  // take the highest indices of the corner node (0,0).
  if (links < 4) return fail(error, "mesh needs 4-link (or larger) devices");
  Topology t(devices, links);
  const auto id = [cols](u32 r, u32 c) { return r * cols + c; };
  for (u32 r = 0; r < rows; ++r) {
    for (u32 c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        if (!ok(t.connect(CubeId{id(r, c)}, LinkId{1}, CubeId{id(r, c + 1)},
                          LinkId{0}))) {
          return fail(error, "mesh wiring conflict (east)");
        }
      }
      if (r + 1 < rows) {
        if (!ok(t.connect(CubeId{id(r, c)}, LinkId{3}, CubeId{id(r + 1, c)},
                          LinkId{2}))) {
          return fail(error, "mesh wiring conflict (south)");
        }
      }
    }
  }
  // Corner (0,0) has no west/north neighbor, so links 0 and 2 are free;
  // extra host links draw on indices >= 4 when available.
  u32 attached = 0;
  for (u32 l = 0; l < links && attached < host_links; ++l) {
    if (t.endpoint(CubeId{0}, LinkId{l}).kind == EndpointKind::Unconnected) {
      (void)t.connect_host(CubeId{0}, LinkId{l});
      ++attached;
    }
  }
  if (attached < host_links) {
    return fail(error, "not enough free links on the mesh corner for host");
  }
  if (!finalize_or_fail(t, error)) return Topology{};
  return t;
}

Topology make_torus2d(u32 rows, u32 cols, u32 links, u32 host_links,
                      std::string* error) {
  if (rows < 2 || cols < 2) {
    return fail(error, "a 2-D torus needs at least 2x2 devices");
  }
  if (over_device_cap(u64{rows} * cols, "torus", error)) return Topology{};
  const u32 devices = rows * cols;
  // Every node uses four links for wraparound neighbors; the host node
  // additionally needs host_links, so 8-link devices are required.
  if (links < 4 + host_links) {
    return fail(error, "torus needs links >= 4 + host_links (8-link parts)");
  }
  Topology t(devices, links);
  const auto id = [cols](u32 r, u32 c) { return r * cols + c; };
  // Link plan: 0 = west, 1 = east, 2 = north, 3 = south (wrapping).
  for (u32 r = 0; r < rows; ++r) {
    for (u32 c = 0; c < cols; ++c) {
      const u32 east = id(r, (c + 1) % cols);
      if (!ok(t.connect(CubeId{id(r, c)}, LinkId{1}, CubeId{east},
                        LinkId{0}))) {
        return fail(error, "torus wiring conflict (east wrap)");
      }
    }
  }
  for (u32 r = 0; r < rows; ++r) {
    for (u32 c = 0; c < cols; ++c) {
      const u32 south = id((r + 1) % rows, c);
      if (!ok(t.connect(CubeId{id(r, c)}, LinkId{3}, CubeId{south},
                        LinkId{2}))) {
        return fail(error, "torus wiring conflict (south wrap)");
      }
    }
  }
  for (u32 l = 0; l < host_links; ++l) {
    if (!ok(t.connect_host(CubeId{0}, LinkId{4 + l}))) {
      return fail(error, "torus host wiring conflict");
    }
  }
  if (!finalize_or_fail(t, error)) return Topology{};
  return t;
}

}  // namespace hmcsim
