// Tests for the Figure 1 topology builders: simple, ring, mesh, 2-D torus.
#include <gtest/gtest.h>

#include "common/limits.hpp"
#include "topo/topology.hpp"

namespace hmcsim {
namespace {

TEST(SimpleTopology, AllLinksHostConnected) {
  for (const u32 links : {4u, 8u}) {
    std::string err;
    const Topology t = make_simple(links, &err);
    ASSERT_EQ(t.num_devices(), 1u) << err;
    EXPECT_EQ(t.host_ports().size(), links);
    EXPECT_TRUE(t.finalized());
    EXPECT_TRUE(t.is_root(CubeId{0}));
  }
}

TEST(ChainTopology, LineOfDevices) {
  std::string err;
  const Topology t = make_chain(4, 4, /*host_links=*/2, /*trunk_links=*/1,
                                &err);
  ASSERT_EQ(t.num_devices(), 4u) << err;
  EXPECT_EQ(t.host_ports().size(), 2u);
  // Hop distance grows linearly down the chain.
  for (u32 d = 0; d < 4; ++d) {
    EXPECT_EQ(t.hops(CubeId{0}, CubeId{d}), d);
    EXPECT_EQ(t.host_distance(CubeId{d}), d);
  }
}

TEST(ChainTopology, SingleDeviceDegeneratesToSimple) {
  std::string err;
  const Topology t = make_chain(1, 4, 4, 1, &err);
  ASSERT_EQ(t.num_devices(), 1u) << err;
  EXPECT_EQ(t.host_ports().size(), 4u);
}

TEST(ChainTopology, RejectsOverSubscribedLinks) {
  std::string err;
  const Topology t = make_chain(3, 4, /*host_links=*/4, /*trunk_links=*/1,
                                &err);
  EXPECT_EQ(t.num_devices(), 0u);
  EXPECT_FALSE(err.empty());
}

TEST(ChainTopology, RejectsMoreCubesThanTheCubFieldAddresses) {
  // Refused before the topology is allocated: a huge count must fail at
  // once, not exhaust memory or grind through routing.
  std::string err;
  EXPECT_EQ(make_chain(spec::kMaxDevices, 4, 2, 1, &err).num_devices(),
            spec::kMaxDevices)
      << err;
  for (const u32 devices : {spec::kMaxDevices + 1, 20000u, 100000000u}) {
    err.clear();
    EXPECT_EQ(make_chain(devices, 4, 2, 1, &err).num_devices(), 0u);
    EXPECT_NE(err.find("CUB"), std::string::npos) << err;
  }
}

TEST(ChainTopology, WideTrunks) {
  std::string err;
  const Topology t = make_chain(2, 8, /*host_links=*/4, /*trunk_links=*/4,
                                &err);
  ASSERT_EQ(t.num_devices(), 2u) << err;
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{1}), 1u);
}

TEST(RingTopology, CycleRouting) {
  std::string err;
  const Topology t = make_ring(5, 4, /*host_links=*/2, &err);
  ASSERT_EQ(t.num_devices(), 5u) << err;
  // Shortest path wraps around the ring: 0->3 is 2 hops (0-4-3), 0->2 is 2
  // hops (0-1-2).
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{1}), 1u);
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{2}), 2u);
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{3}), 2u);
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{4}), 1u);
}

TEST(RingTopology, RejectsTooFewDevices) {
  std::string err;
  EXPECT_EQ(make_ring(2, 4, 2, &err).num_devices(), 0u);
  EXPECT_FALSE(err.empty());
}

TEST(RingTopology, RejectsMoreCubesThanTheCubFieldAddresses) {
  std::string err;
  EXPECT_EQ(make_ring(spec::kMaxDevices, 4, 2, &err).num_devices(),
            spec::kMaxDevices)
      << err;
  for (const u32 devices : {spec::kMaxDevices + 1, 100000000u}) {
    err.clear();
    EXPECT_EQ(make_ring(devices, 4, 2, &err).num_devices(), 0u);
    EXPECT_NE(err.find("CUB"), std::string::npos) << err;
  }
}

TEST(RingTopology, RejectsLinkBudgetOverflow) {
  std::string err;
  EXPECT_EQ(make_ring(3, 4, /*host_links=*/3, &err).num_devices(), 0u);
}

TEST(MeshTopology, GridRouting) {
  std::string err;
  const Topology t = make_mesh(2, 3, 4, /*host_links=*/2, &err);
  ASSERT_EQ(t.num_devices(), 6u) << err;
  // Manhattan distances from the host corner (device 0 at (0,0)).
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{1}), 1u);  // (0,1)
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{2}), 2u);  // (0,2)
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{3}), 1u);  // (1,0)
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{5}), 3u);  // (1,2)
  EXPECT_TRUE(t.is_root(CubeId{0}));
  EXPECT_FALSE(t.is_root(CubeId{5}));
}

TEST(MeshTopology, RejectsTooManyDevices) {
  std::string err;
  EXPECT_EQ(make_mesh(3, 3, 4, 1, &err).num_devices(), 0u);  // 9 > 7 cubes
  EXPECT_NE(err.find("CUB"), std::string::npos);
}

TEST(MeshTopology, RejectsCubeCountsThatWrapU32) {
  // 65536 * 65536 wraps to 0 in 32 bits; the product must not.
  std::string err;
  EXPECT_EQ(make_mesh(65536, 65536, 4, 2, &err).num_devices(), 0u);
  EXPECT_NE(err.find("CUB"), std::string::npos) << err;
  err.clear();
  EXPECT_EQ(make_torus2d(65536, 65536, 8, 2, &err).num_devices(), 0u);
  EXPECT_NE(err.find("CUB"), std::string::npos) << err;
}

TEST(MeshTopology, CornerLinkBudget) {
  // Interior corner has 2 free links on a 4-link part; asking for 3 host
  // links must fail.
  std::string err;
  EXPECT_EQ(make_mesh(2, 3, 4, /*host_links=*/3, &err).num_devices(), 0u);
}

TEST(TorusTopology, WrapRouting) {
  std::string err;
  const Topology t = make_torus2d(2, 3, 8, /*host_links=*/2, &err);
  ASSERT_EQ(t.num_devices(), 6u) << err;
  // With wraparound, (0,0)->(0,2) is a single west hop.
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{2}), 1u);
  EXPECT_EQ(t.hops(CubeId{0}, CubeId{5}), 2u);
  EXPECT_EQ(t.host_ports().size(), 2u);
}

TEST(TorusTopology, RequiresEightLinkParts) {
  std::string err;
  EXPECT_EQ(make_torus2d(2, 2, 4, 2, &err).num_devices(), 0u);
  EXPECT_FALSE(err.empty());
}

TEST(TorusTopology, RejectsUnderTwoByTwo) {
  std::string err;
  EXPECT_EQ(make_torus2d(1, 3, 8, 2, &err).num_devices(), 0u);
}

TEST(Builders, AllDevicesReachableInEveryBuiltTopology) {
  std::string err;
  const Topology topologies[] = {
      make_simple(4, &err),
      make_chain(4, 4, 2, 1, &err),
      make_ring(6, 4, 2, &err),
      make_mesh(2, 3, 4, 2, &err),
      make_torus2d(2, 3, 8, 2, &err),
  };
  for (const Topology& t : topologies) {
    ASSERT_GT(t.num_devices(), 0u);
    for (u32 a = 0; a < t.num_devices(); ++a) {
      EXPECT_TRUE(t.host_distance(CubeId{a}).has_value());
      for (u32 b = 0; b < t.num_devices(); ++b) {
        EXPECT_TRUE(t.hops(CubeId{a}, CubeId{b}).has_value())
            << a << "->" << b;
      }
    }
  }
}

TEST(Builders, TorusBeatsMeshOnDiameter) {
  // The torus wrap links shrink the network diameter versus the mesh —
  // the structural benefit Figure 1 hints at.
  std::string err;
  const Topology mesh = make_mesh(2, 3, 8, 2, &err);
  const Topology torus = make_torus2d(2, 3, 8, 2, &err);
  ASSERT_GT(mesh.num_devices(), 0u);
  ASSERT_GT(torus.num_devices(), 0u);
  u32 mesh_diameter = 0, torus_diameter = 0;
  for (u32 b = 0; b < 6; ++b) {
    mesh_diameter = std::max(mesh_diameter, *mesh.hops(CubeId{0}, CubeId{b}));
    torus_diameter =
        std::max(torus_diameter, *torus.hops(CubeId{0}, CubeId{b}));
  }
  EXPECT_LT(torus_diameter, mesh_diameter);
}

}  // namespace
}  // namespace hmcsim
