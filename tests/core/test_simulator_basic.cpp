#include <gtest/gtest.h>

#include <sstream>

#include "tests/core/helpers.hpp"

namespace hmcsim {
namespace {

using test::await_response;
using test::make_simple_sim;
using test::send_request;
using test::small_device;

TEST(SimulatorInit, SimpleBringUp) {
  Simulator sim = make_simple_sim();
  EXPECT_TRUE(sim.initialized());
  EXPECT_EQ(sim.num_devices(), 1u);
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.quiescent());
}

TEST(SimulatorInit, TopologyMismatchRejected) {
  SimConfig sc;
  sc.num_devices = 2;
  sc.device = small_device();
  Topology topo = make_simple(4);  // only one device
  Simulator sim;
  std::string diag;
  EXPECT_EQ(sim.init(sc, std::move(topo), &diag), Status::InvalidConfig);
  EXPECT_FALSE(sim.initialized());
}

TEST(SimulatorInit, LinkCountMismatchRejected) {
  SimConfig sc;
  sc.num_devices = 1;
  sc.device = small_device();
  sc.device.num_links = 8;
  Topology topo = make_simple(4);
  Simulator sim;
  EXPECT_EQ(sim.init(sc, std::move(topo)), Status::InvalidConfig);
}

TEST(SimulatorSend, RejectsBadCoordinates) {
  Simulator sim = make_simple_sim();
  PacketBuffer pkt;
  ASSERT_EQ(build_memrequest(0, 0, 0, Command::Rd16, 0, {}, pkt), Status::Ok);
  EXPECT_EQ(sim.send(1, 0, pkt), Status::InvalidArgument);  // no device 1
  EXPECT_EQ(sim.send(0, 9, pkt), Status::InvalidArgument);  // no link 9
}

TEST(SimulatorSend, RejectsNonHostLink) {
  // Chain 0-1: device 0 link 3 is device-wired; host sends there must fail.
  std::string err;
  Topology topo = make_chain(2, 4, /*host_links=*/2, /*trunk_links=*/1, &err);
  ASSERT_GT(topo.num_devices(), 0u) << err;
  SimConfig sc;
  sc.num_devices = 2;
  sc.device = small_device();
  Simulator sim;
  ASSERT_EQ(sim.init(sc, std::move(topo)), Status::Ok);
  PacketBuffer pkt;
  ASSERT_EQ(build_memrequest(0, 0, 0, Command::Rd16, 3, {}, pkt), Status::Ok);
  EXPECT_EQ(sim.send(0, 3, pkt), Status::InvalidArgument);
  EXPECT_EQ(sim.send(1, 0, pkt), Status::InvalidArgument);  // child device
}

TEST(SimulatorSend, RejectsMalformedPackets) {
  Simulator sim = make_simple_sim();
  PacketBuffer pkt;
  ASSERT_EQ(build_memrequest(0, 0x100, 1, Command::Wr16, 0,
                             std::vector<u64>(2, 7), pkt),
            Status::Ok);
  pkt.words[1] ^= 1;  // corrupt payload; CRC now stale
  EXPECT_EQ(sim.send(0, 0, pkt), Status::MalformedPacket);
}

TEST(SimulatorSend, FlowPacketsAreConsumedAtTheLink) {
  Simulator sim = make_simple_sim();
  for (const Command c :
       {Command::Null, Command::Pret, Command::Tret, Command::Irtry}) {
    EXPECT_EQ(send_request(sim, 0, 0, c, 0, 0), Status::Ok);
  }
  EXPECT_EQ(sim.stats(0).flow_packets, 4u);
  EXPECT_EQ(sim.stats(0).sends, 0u);  // not memory traffic
  EXPECT_TRUE(sim.quiescent());      // nothing enqueued
}

TEST(SimulatorBasic, WriteReadRoundTripReturnsData) {
  Simulator sim = make_simple_sim();
  std::vector<u64> payload(8);
  for (usize i = 0; i < 8; ++i) payload[i] = 0xA0 + i;
  ASSERT_EQ(send_request(sim, 0, 0, Command::Wr64, 0x1000, 7, 0, payload),
            Status::Ok);
  auto wr = await_response(sim, 0, 0);
  ASSERT_TRUE(wr.has_value());
  EXPECT_EQ(wr->cmd, Command::WriteResponse);
  EXPECT_EQ(wr->tag, 7u);
  EXPECT_EQ(wr->errstat, ErrStat::Ok);
  EXPECT_EQ(wr->cub, 0u);

  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd64, 0x1000, 8), Status::Ok);
  PacketBuffer raw;
  auto rd = await_response(sim, 0, 0, 200, &raw);
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->cmd, Command::ReadResponse);
  EXPECT_EQ(rd->tag, 8u);
  ASSERT_EQ(raw.payload().size(), 8u);
  for (usize i = 0; i < 8; ++i) EXPECT_EQ(raw.payload()[i], 0xA0 + i);
}

TEST(SimulatorBasic, ResponseReturnsToInjectionLink) {
  Simulator sim = make_simple_sim();
  // Send on link 2; the response must appear on link 2, not link 0.
  ASSERT_EQ(send_request(sim, 0, 2, Command::Rd16, 0x40, 3), Status::Ok);
  for (int i = 0; i < 50; ++i) sim.clock();
  PacketBuffer pkt;
  EXPECT_EQ(sim.recv(0, 0, pkt), Status::NoResponse);
  EXPECT_EQ(sim.recv(0, 1, pkt), Status::NoResponse);
  EXPECT_EQ(sim.recv(0, 3, pkt), Status::NoResponse);
  EXPECT_EQ(sim.recv(0, 2, pkt), Status::Ok);
  ResponseFields f;
  ASSERT_EQ(decode_response(pkt, f), Status::Ok);
  EXPECT_EQ(f.slid, 2u);
}

TEST(SimulatorBasic, RecvOnIdleLinkReturnsNoResponse) {
  Simulator sim = make_simple_sim();
  PacketBuffer pkt;
  EXPECT_EQ(sim.recv(0, 0, pkt), Status::NoResponse);
  sim.clock();
  EXPECT_EQ(sim.recv(0, 0, pkt), Status::NoResponse);
}

TEST(SimulatorBasic, PostedWriteProducesNoResponse) {
  Simulator sim = make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::PostedWr16, 0x200, 1, 0,
                         {0xDEAD, 0xBEEF}),
            Status::Ok);
  for (int i = 0; i < 30; ++i) sim.clock();
  PacketBuffer pkt;
  EXPECT_EQ(sim.recv(0, 0, pkt), Status::NoResponse);
  EXPECT_EQ(sim.stats(0).writes, 1u);
  EXPECT_TRUE(sim.quiescent());
  // The data still landed.
  u64 word = 0;
  ASSERT_TRUE(sim.device(0).store.read_words(0x200, {&word, 1}));
  EXPECT_EQ(word, 0xDEADu);
}

TEST(SimulatorBasic, StatsCountSendsAndRecvs) {
  Simulator sim = make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0, 1), Status::Ok);
  ASSERT_EQ(send_request(sim, 0, 1, Command::Rd16, 0x40, 2), Status::Ok);
  (void)await_response(sim, 0, 0);
  (void)await_response(sim, 0, 1);
  const DeviceStats& s = sim.stats(0);
  EXPECT_EQ(s.sends, 2u);
  EXPECT_EQ(s.recvs, 2u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.responses, 2u);
}

TEST(SimulatorBasic, ResetRestoresPowerOnState) {
  // Under every timing backend: the backend's private state (pcm_like's
  // write-gap deadline) powers on again along with the shared bank arrays.
  for (const TimingBackend backend :
       {TimingBackend::HmcDram, TimingBackend::GenericDdr,
        TimingBackend::PcmLike}) {
    SCOPED_TRACE(to_string(backend));
    DeviceConfig dc = small_device();
    dc.timing_backend = backend;
    dc.pcm_write_gap_cycles = 64;
    Simulator sim = make_simple_sim(dc);
    std::ostringstream power_on;
    ASSERT_EQ(sim.save_checkpoint(power_on), Status::Ok);

    ASSERT_EQ(send_request(sim, 0, 0, Command::Wr16, 0x80, 1, 0, {1, 2}),
              Status::Ok);
    (void)await_response(sim, 0, 0);
    EXPECT_GT(sim.now(), 0u);
    EXPECT_GT(sim.stats(0).writes, 0u);

    sim.reset();
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_EQ(sim.stats(0).writes, 0u);
    EXPECT_TRUE(sim.quiescent());
    // Memory was cleared too.
    u64 word = 1;
    ASSERT_TRUE(sim.device(0).store.read_words(0x80, {&word, 1}));
    EXPECT_EQ(word, 0u);
    // Every serialized byte, backend blobs included, is back at power-on.
    std::ostringstream after;
    ASSERT_EQ(sim.save_checkpoint(after), Status::Ok);
    EXPECT_EQ(after.str(), power_on.str());
  }
}

TEST(SimulatorBasic, ResetCanPreserveMemory) {
  Simulator sim = make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Wr16, 0x80, 1, 0, {42, 0}),
            Status::Ok);
  (void)await_response(sim, 0, 0);
  sim.reset(/*clear_memory=*/false);
  u64 word = 0;
  ASSERT_TRUE(sim.device(0).store.read_words(0x80, {&word, 1}));
  EXPECT_EQ(word, 42u);
}

TEST(SimulatorBasic, ModelDataOffSkipsStorage) {
  DeviceConfig dc = small_device();
  dc.model_data = false;
  Simulator sim = make_simple_sim(dc);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Wr64, 0x1000, 1, 0,
                         std::vector<u64>(8, 0xFF)),
            Status::Ok);
  (void)await_response(sim, 0, 0);
  EXPECT_EQ(sim.device(0).store.resident_pages(), 0u);
  // Reads return zeros.
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd64, 0x1000, 2), Status::Ok);
  PacketBuffer raw;
  auto rd = await_response(sim, 0, 0, 200, &raw);
  ASSERT_TRUE(rd.has_value());
  for (const u64 w : raw.payload()) EXPECT_EQ(w, 0u);
}

TEST(SimulatorBasic, TagsEchoThroughAllValues) {
  Simulator sim = make_simple_sim();
  // Boundary tags: 0, 1, 511.
  for (const Tag tag : {Tag{0}, Tag{1}, Tag{511}}) {
    ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 64 * tag, tag),
              Status::Ok);
    auto rsp = await_response(sim, 0, 0);
    ASSERT_TRUE(rsp.has_value());
    EXPECT_EQ(rsp->tag, tag);
  }
}

}  // namespace
}  // namespace hmcsim
