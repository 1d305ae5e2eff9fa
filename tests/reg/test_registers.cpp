#include "reg/registers.hpp"

#include <gtest/gtest.h>

#include <set>

namespace hmcsim {
namespace {

TEST(RegisterTable, PhysicalIndicesAreUniqueAndNonLinear) {
  std::set<u32> phys;
  for (const auto& def : register_table()) {
    EXPECT_TRUE(phys.insert(def.phys).second) << def.name;
  }
  // "Register indexing on physical HMC devices is not purely linear and
  // does not begin at zero" (§IV.D).
  EXPECT_EQ(phys.count(0), 0u);
  EXPECT_GT(*phys.rbegin() - *phys.begin(),
            static_cast<u32>(register_table().size()));
}

TEST(RegisterTable, TranslationRoundTrips) {
  for (const auto& def : register_table()) {
    const auto linear = reg_from_phys(def.phys);
    ASSERT_TRUE(linear.has_value()) << def.name;
    EXPECT_EQ(*linear, def.linear);
    EXPECT_EQ(phys_from_reg(def.linear), def.phys);
  }
}

TEST(RegisterTable, UnknownPhysIndexTranslatesToNothing) {
  EXPECT_FALSE(reg_from_phys(0).has_value());
  EXPECT_FALSE(reg_from_phys(0xdeadbeef).has_value());
  EXPECT_FALSE(reg_from_phys(0x240001).has_value());
}

TEST(RegisterFile, ResetValues) {
  RegisterFile rf(4);
  u64 v = 0;
  ASSERT_EQ(rf.read(Reg::Rvid, v), Status::Ok);
  EXPECT_NE(v, 0u);  // revision/vendor id is architected nonzero
  ASSERT_EQ(rf.read(Reg::Gc, v), Status::Ok);
  EXPECT_EQ(v, 0u);
}

TEST(RegisterFile, RwReadsBackWrites) {
  RegisterFile rf(4);
  ASSERT_EQ(rf.write(Reg::Gc, 0xABCD), Status::Ok);
  u64 v = 0;
  ASSERT_EQ(rf.read(Reg::Gc, v), Status::Ok);
  EXPECT_EQ(v, 0xABCDu);
  // Survives clock edges (RW does not self-clear).
  rf.clock_edge();
  ASSERT_EQ(rf.read(Reg::Gc, v), Status::Ok);
  EXPECT_EQ(v, 0xABCDu);
}

TEST(RegisterFile, RoRejectsWrites) {
  RegisterFile rf(4);
  EXPECT_EQ(rf.write(Reg::Err, 1), Status::ReadOnlyRegister);
  EXPECT_EQ(rf.write(Reg::Feat, 1), Status::ReadOnlyRegister);
  EXPECT_EQ(rf.write(Reg::Rvid, 1), Status::ReadOnlyRegister);
  u64 v = 1;
  ASSERT_EQ(rf.read(Reg::Err, v), Status::Ok);
  EXPECT_EQ(v, 0u);  // unchanged
}

TEST(RegisterFile, RwsSelfClearsAtClockEdge) {
  RegisterFile rf(4);
  ASSERT_EQ(rf.write(Reg::Edr0, 0xF00D), Status::Ok);
  u64 v = 0;
  // Visible until the next clock edge...
  ASSERT_EQ(rf.read(Reg::Edr0, v), Status::Ok);
  EXPECT_EQ(v, 0xF00Du);
  // ...then self-clears.
  rf.clock_edge();
  ASSERT_EQ(rf.read(Reg::Edr0, v), Status::Ok);
  EXPECT_EQ(v, 0u);
  // Only written-this-cycle RWS registers clear; a second edge is a no-op.
  rf.clock_edge();
  ASSERT_EQ(rf.read(Reg::Edr0, v), Status::Ok);
  EXPECT_EQ(v, 0u);
}

// The idle fast-forward engine arms only when any_pending_self_clear() is
// false, so the flag must be exact: a stale "pending" would stage an extra
// cycle (and move cycles_skipped), a missed one would skip a self-clear.
TEST(RegisterFile, RwsWriteSelfClearsAfterExactlyOneEdge) {
  RegisterFile rf(4);
  EXPECT_FALSE(rf.any_pending_self_clear());
  // Two writes to one RWS register and one to another, plus an RW write,
  // all in the same cycle.
  ASSERT_EQ(rf.write_phys(phys_from_reg(Reg::Edr1), 1), Status::Ok);
  ASSERT_EQ(rf.write_phys(phys_from_reg(Reg::Edr1), 2), Status::Ok);
  ASSERT_EQ(rf.write_phys(phys_from_reg(Reg::Edr3), 3), Status::Ok);
  ASSERT_EQ(rf.write_phys(phys_from_reg(Reg::Gc), 4), Status::Ok);
  EXPECT_TRUE(rf.any_pending_self_clear());
  u64 v = 0;
  ASSERT_EQ(rf.read(Reg::Edr1, v), Status::Ok);
  EXPECT_EQ(v, 2u);

  rf.clock_edge();
  EXPECT_FALSE(rf.any_pending_self_clear());
  ASSERT_EQ(rf.read(Reg::Edr1, v), Status::Ok);
  EXPECT_EQ(v, 0u);
  ASSERT_EQ(rf.read(Reg::Edr3, v), Status::Ok);
  EXPECT_EQ(v, 0u);
  ASSERT_EQ(rf.read(Reg::Gc, v), Status::Ok);
  EXPECT_EQ(v, 4u);  // RW registers never self-clear

  // RW and refused RO writes arm nothing.
  ASSERT_EQ(rf.write_phys(phys_from_reg(Reg::Gc), 5), Status::Ok);
  EXPECT_EQ(rf.write_phys(phys_from_reg(Reg::Err), 5),
            Status::ReadOnlyRegister);
  EXPECT_FALSE(rf.any_pending_self_clear());
}

TEST(RegisterFile, ResetDropsAPendingSelfClear) {
  RegisterFile rf(4);
  ASSERT_EQ(rf.write(Reg::Edr0, 7), Status::Ok);
  EXPECT_TRUE(rf.any_pending_self_clear());
  rf.reset();
  EXPECT_FALSE(rf.any_pending_self_clear());
  // The next write counts from zero again: one edge clears it.
  ASSERT_EQ(rf.write(Reg::Edr0, 8), Status::Ok);
  EXPECT_TRUE(rf.any_pending_self_clear());
  rf.clock_edge();
  EXPECT_FALSE(rf.any_pending_self_clear());
}

TEST(RegisterFile, RestoreRecountsPendingSelfClears) {
  RegisterFile src(4);
  const RegisterFile::Snapshot idle = src.snapshot();
  ASSERT_EQ(src.write(Reg::Edr2, 9), Status::Ok);
  ASSERT_EQ(src.write(Reg::Edr0, 6), Status::Ok);
  const RegisterFile::Snapshot pending = src.snapshot();

  RegisterFile rf(4);
  rf.restore(pending);
  EXPECT_TRUE(rf.any_pending_self_clear());
  u64 v = 0;
  ASSERT_EQ(rf.read(Reg::Edr2, v), Status::Ok);
  EXPECT_EQ(v, 9u);
  rf.clock_edge();
  EXPECT_FALSE(rf.any_pending_self_clear());
  ASSERT_EQ(rf.read(Reg::Edr2, v), Status::Ok);
  EXPECT_EQ(v, 0u);

  // A restore replaces the pending set: a snapshot without one leaves
  // nothing pending, whatever was pending before.
  ASSERT_EQ(rf.write(Reg::Edr1, 1), Status::Ok);
  rf.restore(idle);
  EXPECT_FALSE(rf.any_pending_self_clear());
  rf.restore(pending);
  rf.restore(pending);
  rf.clock_edge();
  EXPECT_FALSE(rf.any_pending_self_clear());
}

TEST(RegisterFile, FourLinkPartsLackHighLinkRegisters) {
  RegisterFile rf4(4);
  u64 v = 0;
  EXPECT_EQ(rf4.read(Reg::Lc3, v), Status::Ok);
  EXPECT_EQ(rf4.read(Reg::Lc4, v), Status::NoSuchRegister);
  EXPECT_EQ(rf4.write(Reg::Lr7, 1), Status::NoSuchRegister);

  RegisterFile rf8(8);
  EXPECT_EQ(rf8.read(Reg::Lc4, v), Status::Ok);
  EXPECT_EQ(rf8.write(Reg::Lr7, 1), Status::Ok);
}

TEST(RegisterFile, PhysAccessPath) {
  RegisterFile rf(4);
  ASSERT_EQ(rf.write_phys(0x280000u, 0x42), Status::Ok);  // GC
  u64 v = 0;
  ASSERT_EQ(rf.read_phys(0x280000u, v), Status::Ok);
  EXPECT_EQ(v, 0x42u);
  EXPECT_EQ(rf.read_phys(0x123456u, v), Status::NoSuchRegister);
  EXPECT_EQ(rf.write_phys(0x123456u, 1), Status::NoSuchRegister);
}

TEST(RegisterFile, ResetRestoresArchitectedState) {
  RegisterFile rf(4);
  (void)rf.write(Reg::Gc, 0x1111);
  (void)rf.write(Reg::Ac, 0x2222);
  rf.reset();
  u64 v = 1;
  ASSERT_EQ(rf.read(Reg::Gc, v), Status::Ok);
  EXPECT_EQ(v, 0u);
  ASSERT_EQ(rf.read(Reg::Rvid, v), Status::Ok);
  EXPECT_NE(v, 0u);
}

TEST(RegisterFile, EveryTableEntryAccessibleOn8Link) {
  RegisterFile rf(8);
  for (const auto& def : register_table()) {
    u64 v = 0;
    EXPECT_EQ(rf.read(def.linear, v), Status::Ok) << def.name;
    const Status ws = rf.write(def.linear, 1);
    if (def.cls == RegClass::RO) {
      EXPECT_EQ(ws, Status::ReadOnlyRegister) << def.name;
    } else {
      EXPECT_EQ(ws, Status::Ok) << def.name;
    }
  }
}

TEST(RegisterFile, NamesResolve) {
  EXPECT_EQ(to_string(Reg::Gc), "GC");
  EXPECT_EQ(to_string(Reg::Edr3), "EDR3");
  EXPECT_EQ(to_string(Reg::Rvid), "RVID");
}

}  // namespace
}  // namespace hmcsim
