// Checkpoint/restore: a restored simulator must continue cycle-for-cycle
// identically, including every in-flight packet, register, bank timer and
// memory byte.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "tests/core/checkpoint_forge.hpp"
#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

using test::send_request;
using test::small_device;

TEST(Checkpoint, RoundTripOfQuiescentSimulator) {
  Simulator sim = test::make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Wr16, 0x40, 1, 0, {0x42, 0}),
            Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());
  ASSERT_EQ(sim.jtag_reg_write(0, phys_from_reg(Reg::Gc), 0x99), Status::Ok);

  std::stringstream stream;
  ASSERT_EQ(sim.save_checkpoint(stream), Status::Ok);

  Simulator restored;
  ASSERT_EQ(restored.restore_checkpoint(stream), Status::Ok);
  EXPECT_EQ(restored.now(), sim.now());
  EXPECT_EQ(restored.num_devices(), 1u);
  EXPECT_TRUE(restored.quiescent());
  EXPECT_EQ(restored.stats(0).writes, 1u);

  u64 word = 0;
  ASSERT_TRUE(restored.device(0).store.read_words(0x40, {&word, 1}));
  EXPECT_EQ(word, 0x42u);
  u64 gc = 0;
  ASSERT_EQ(restored.jtag_reg_read(0, phys_from_reg(Reg::Gc), gc),
            Status::Ok);
  EXPECT_EQ(gc, 0x99u);
}

TEST(Checkpoint, MidFlightStateContinuesIdentically) {
  // Inject a burst, clock partway so packets sit in crossbar queues, vault
  // queues and response queues simultaneously, checkpoint, then compare
  // the original and the restored copies response-for-response.
  DeviceConfig dc = small_device();
  dc.bank_busy_cycles = 6;
  Simulator original = test::make_simple_sim(dc);
  for (Tag t = 0; t < 24; ++t) {
    const Command cmd = (t % 2 == 0) ? Command::Rd32 : Command::Wr32;
    ASSERT_NE(send_request(original, 0, t % 4, cmd, 64 * t, t, 0,
                           std::vector<u64>(request_data_bytes(cmd) / 8,
                                            t)),
              Status::InvalidArgument);
  }
  for (int i = 0; i < 3; ++i) original.clock();
  ASSERT_FALSE(original.quiescent());  // genuinely mid-flight

  std::stringstream stream;
  ASSERT_EQ(original.save_checkpoint(stream), Status::Ok);
  Simulator restored;
  ASSERT_EQ(restored.restore_checkpoint(stream), Status::Ok);
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_FALSE(restored.quiescent());

  // Drain both in lockstep and require bit-identical response packets.
  PacketBuffer a, b;
  for (int cycle = 0; cycle < 300; ++cycle) {
    for (u32 l = 0; l < 4; ++l) {
      for (;;) {
        const Status sa = original.recv(0, l, a);
        const Status sb = restored.recv(0, l, b);
        ASSERT_EQ(sa, sb) << "cycle " << cycle << " link " << l;
        if (!ok(sa)) break;
        ASSERT_EQ(a, b) << "cycle " << cycle << " link " << l;
      }
    }
    original.clock();
    restored.clock();
    if (original.quiescent() && restored.quiescent()) break;
  }
  EXPECT_TRUE(original.quiescent());
  EXPECT_TRUE(restored.quiescent());
  EXPECT_EQ(original.stats(0).reads, restored.stats(0).reads);
  EXPECT_EQ(original.stats(0).writes, restored.stats(0).writes);
  EXPECT_EQ(original.stats(0).responses, restored.stats(0).responses);
  EXPECT_EQ(original.stats(0).bank_conflicts,
            restored.stats(0).bank_conflicts);
}

TEST(Checkpoint, MultiDeviceTopologySurvives) {
  SimConfig sc;
  sc.num_devices = 3;
  sc.device = small_device();
  std::string err;
  Topology topo = make_chain(3, 4, 2, 1, &err);
  ASSERT_GT(topo.num_devices(), 0u) << err;
  Simulator sim;
  ASSERT_EQ(sim.init(sc, std::move(topo)), Status::Ok);

  // Put a request in flight toward the deepest cube, then checkpoint.
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x80, 7, /*cub=*/2),
            Status::Ok);
  sim.clock();
  sim.clock();

  std::stringstream stream;
  ASSERT_EQ(sim.save_checkpoint(stream), Status::Ok);
  Simulator restored;
  ASSERT_EQ(restored.restore_checkpoint(stream), Status::Ok);
  EXPECT_EQ(restored.num_devices(), 3u);
  EXPECT_TRUE(restored.topology().is_root(CubeId{0}));
  EXPECT_FALSE(restored.topology().is_root(CubeId{2}));
  EXPECT_EQ(restored.topology().hops(CubeId{0}, CubeId{2}), 2u);

  const auto rsp = test::await_response(restored, 0, 0, 500);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->tag, 7u);
  EXPECT_EQ(rsp->cub, 2u);
}

TEST(Checkpoint, RestoredStateIsByteIdenticalUnderLockstep) {
  // The strongest determinism statement: save A, restore into B, drive
  // both with identical input for N cycles, save both — the two checkpoint
  // streams must be byte-for-byte identical.
  DeviceConfig dc = small_device();
  dc.bank_busy_cycles = 5;
  Simulator a = test::make_simple_sim(dc);
  for (Tag t = 0; t < 16; ++t) {
    ASSERT_NE(send_request(a, 0, t % 4, Command::Rd32, 64 * t, t),
              Status::InvalidArgument);
  }
  for (int i = 0; i < 2; ++i) a.clock();

  std::stringstream snap;
  ASSERT_EQ(a.save_checkpoint(snap), Status::Ok);
  Simulator b;
  ASSERT_EQ(b.restore_checkpoint(snap), Status::Ok);

  SplitMix64 rng(99);
  PacketBuffer pkt, out_a, out_b;
  for (int cycle = 0; cycle < 60; ++cycle) {
    // Identical stimulus to both.
    if (cycle % 3 == 0) {
      const PhysAddr addr = rng.next_below(1u << 20) * 16;
      const Tag tag = static_cast<Tag>(100 + cycle);
      ASSERT_EQ(build_memrequest(0, addr, tag, Command::Wr16, 1,
                                 std::vector<u64>{static_cast<u64>(cycle), 0},
                                 pkt),
                Status::Ok);
      const Status sa = a.send(0, 1, pkt);
      const Status sb = b.send(0, 1, pkt);
      ASSERT_EQ(sa, sb);
    }
    for (u32 l = 0; l < 4; ++l) {
      for (;;) {
        const Status ra = a.recv(0, l, out_a);
        const Status rb = b.recv(0, l, out_b);
        ASSERT_EQ(ra, rb);
        if (!ok(ra)) break;
        ASSERT_EQ(out_a, out_b);
      }
    }
    a.clock();
    b.clock();
  }

  std::stringstream end_a, end_b;
  ASSERT_EQ(a.save_checkpoint(end_a), Status::Ok);
  ASSERT_EQ(b.save_checkpoint(end_b), Status::Ok);
  EXPECT_EQ(end_a.str(), end_b.str());
}

TEST(Checkpoint, RejectsCorruptStreams) {
  Simulator sim = test::make_simple_sim();
  std::stringstream stream;
  ASSERT_EQ(sim.save_checkpoint(stream), Status::Ok);

  // Corrupt magic.
  std::string bytes = stream.str();
  bytes[0] = 'X';
  std::istringstream bad_magic(bytes);
  Simulator r1;
  EXPECT_EQ(r1.restore_checkpoint(bad_magic), Status::MalformedPacket);

  // Truncated stream.
  std::istringstream truncated(stream.str().substr(0, 40));
  Simulator r2;
  EXPECT_NE(r2.restore_checkpoint(truncated), Status::Ok);

  // Empty stream.
  std::istringstream empty("");
  Simulator r3;
  EXPECT_EQ(r3.restore_checkpoint(empty), Status::MalformedPacket);
}

TEST(Checkpoint, SaveRequiresInitializedSimulator) {
  Simulator sim;
  std::stringstream stream;
  EXPECT_EQ(sim.save_checkpoint(stream), Status::InvalidArgument);
}

TEST(Checkpoint, RestoredSimulatorAcceptsNewTraffic) {
  Simulator sim = test::make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Wr16, 0x100, 1, 0, {5, 6}),
            Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());

  std::stringstream stream;
  ASSERT_EQ(sim.save_checkpoint(stream), Status::Ok);
  Simulator restored;
  ASSERT_EQ(restored.restore_checkpoint(stream), Status::Ok);

  // Read back pre-checkpoint data through the full packet path.
  ASSERT_EQ(send_request(restored, 0, 1, Command::Rd16, 0x100, 2),
            Status::Ok);
  PacketBuffer raw;
  const auto rsp = test::await_response(restored, 0, 1, 200, &raw);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(raw.payload()[0], 5u);
  EXPECT_EQ(raw.payload()[1], 6u);
}

TEST(Checkpoint, DriverWorkloadSplitAcrossCheckpoint) {
  // End-to-end: half a workload, checkpoint+restore, half a workload; the
  // restored device's total counters equal an uninterrupted run's.
  DeviceConfig dc = small_device();
  dc.model_data = false;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  {
    RandomAccessGenerator gen(gc);
    DriverConfig dcfg;
    dcfg.total_requests = 500;
    HostDriver driver(sim, gen, dcfg);
    ASSERT_EQ(driver.run().completed, 500u);
  }
  std::stringstream stream;
  ASSERT_EQ(sim.save_checkpoint(stream), Status::Ok);
  Simulator restored;
  ASSERT_EQ(restored.restore_checkpoint(stream), Status::Ok);
  {
    GeneratorConfig gc2 = gc;
    gc2.seed = 2;
    RandomAccessGenerator gen(gc2);
    DriverConfig dcfg;
    dcfg.total_requests = 500;
    HostDriver driver(restored, gen, dcfg);
    ASSERT_EQ(driver.run().completed, 500u);
  }
  EXPECT_EQ(restored.total_stats().retired(), 1000u);
}

// ---- forged streams: valid CRCs around impossible values -------------------
//
// Each case edits a saved stream (or the state it is saved from) and
// reseals the section CRC, so the damage reaches the decoders.  Restore must
// refuse it with a typed error naming the section; it must neither crash
// nor hand the next clock an index past the machine.

std::string save(const Simulator& sim) {
  std::ostringstream os;
  EXPECT_EQ(sim.save_checkpoint(os), Status::Ok);
  return os.str();
}

void expect_rejected(const std::string& bytes, u32 section,
                     const std::string& what) {
  Simulator sim;
  std::istringstream is(bytes);
  CheckpointError err;
  EXPECT_EQ(sim.restore_checkpoint(is, &err, nullptr), Status::InvalidConfig)
      << what;
  EXPECT_EQ(err.code, CheckpointErrorCode::BadFieldValue)
      << what << ": " << err.message();
  EXPECT_EQ(err.section, section) << what << ": " << err.message();
}

/// The device the CFG cases save: a retry limit lets link_protocol flip on
/// without touching a second field.
DeviceConfig cfg_device() {
  DeviceConfig dc = small_device();
  dc.link_retry_limit = 3;
  return dc;
}

/// Index of the one payload word of the first `section` in which two saves
/// differ: found by diffing, so the tests never hard-code a record's field
/// order.
usize differing_word(const std::string& a, const std::string& b,
                     u32 section) {
  const test::CkptSection sa = test::find_section(a, section);
  const test::CkptSection sb = test::find_section(b, section);
  EXPECT_EQ(sa.len, sb.len);
  usize found = 0, differing = 0;
  for (usize w = 0; w < sa.len / 8; ++w) {
    if (test::load_word(a, sa.payload + 8 * w) !=
        test::load_word(b, sb.payload + 8 * w)) {
      found = w;
      ++differing;
    }
  }
  EXPECT_EQ(differing, 1u);
  return found;
}

/// The CFG word that `change` alters.
usize cfg_word(const std::function<void(DeviceConfig&)>& change) {
  DeviceConfig changed = cfg_device();
  change(changed);
  return differing_word(save(test::make_simple_sim(cfg_device())),
                        save(test::make_simple_sim(changed)),
                        ckpt::kSectionConfig);
}

TEST(CheckpointForged, WrappingPageIndexIsRejected) {
  Simulator sim = test::make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Wr16, 0x40, 1, 0, {7, 8}),
            Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());
  std::string bytes = save(sim);
  const test::CkptSection devc =
      test::find_section(bytes, ckpt::kSectionDevice);
  const usize count_word = test::kDevcPageCountWord;
  ASSERT_EQ(test::load_word(bytes, devc.payload + 8 * count_word), 1u);
  ASSERT_EQ(test::load_word(bytes, devc.payload + 8 * (count_word + 1)), 0u);
  // index * 4096 wraps to 5 * 4096, well inside the device.
  test::forge_word(bytes, devc, count_word + 1, (u64{1} << 52) + 5);
  expect_rejected(bytes, ckpt::kSectionDevice, "page index 2^52 + 5");
}

Simulator restored_from(const std::string& bytes) {
  Simulator sim;
  std::istringstream is(bytes);
  EXPECT_EQ(sim.restore_checkpoint(is), Status::Ok);
  return sim;
}

TEST(CheckpointForged, RoutingPastTheTopologyIsRejected) {
  // Requests sit in the link 0 crossbar queue until the first clock.
  Simulator sim = test::make_simple_sim();
  for (Tag t = 0; t < 4; ++t) {
    ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 64 * t, t), Status::Ok);
  }
  const std::string queued = save(sim);
  const std::function<void(RequestEntry&)> request_edits[] = {
      [](RequestEntry& e) { e.home_link = 200; },
      [](RequestEntry& e) { e.ingress_link = 4; },
      [](RequestEntry& e) { e.home_dev = 1; },
  };
  for (const auto& edit : request_edits) {
    Simulator in_queue = restored_from(queued);
    edit(in_queue.device(0).links[0].rqst.front());
    expect_rejected(save(in_queue), ckpt::kSectionDevice, "queued request");

    // A held replay copy goes through the same entry decoder.
    Simulator in_replay = restored_from(queued);
    LinkProtoState& proto = in_replay.device(0).links[1].proto;
    proto.replay = in_replay.device(0).links[0].rqst.front();
    proto.replay_pending = true;
    edit(proto.replay);
    expect_rejected(save(in_replay), ckpt::kSectionDevice, "replay entry");
  }

  // Never draining the host side leaves responses queued on link 0.
  for (int i = 0; i < 40; ++i) sim.clock();
  ASSERT_GT(sim.device(0).links[0].rsp.size(), 0u);
  const std::string responded = save(sim);
  const std::function<void(ResponseEntry&)> response_edits[] = {
      [](ResponseEntry& e) { e.home_link = 200; },
      [](ResponseEntry& e) { e.home_dev = 1; },
  };
  for (const auto& edit : response_edits) {
    Simulator forged = restored_from(responded);
    edit(forged.device(0).links[0].rsp.front());
    expect_rejected(save(forged), ckpt::kSectionDevice, "queued response");
  }
}

TEST(CheckpointForged, QueueDepthBeyondCapIsRejected) {
  const std::string base = save(test::make_simple_sim(cfg_device()));
  const test::CkptSection cfg = test::find_section(base, ckpt::kSectionConfig);
  for (const usize word :
       {cfg_word([](DeviceConfig& c) { c.xbar_depth += 1; }),
        cfg_word([](DeviceConfig& c) { c.vault_depth += 1; })}) {
    for (const u64 depth : {u64{DeviceConfig::kMaxQueueDepth} + 1,
                            u64{0xffffffff}, ~u64{0}}) {
      std::string bytes = base;
      test::forge_word(bytes, cfg, word, depth);
      expect_rejected(bytes, ckpt::kSectionConfig,
                      "depth word " + std::to_string(word) + " = " +
                          std::to_string(depth));
    }
  }
}

TEST(CheckpointForged, EnumAndFlagWordsOutOfRangeAreRejected) {
  const std::string base = save(test::make_simple_sim(cfg_device()));
  const test::CkptSection cfg = test::find_section(base, ckpt::kSectionConfig);
  const struct {
    const char* name;
    usize word;
    u64 bad;
  } cases[] = {
      {"map_mode",
       cfg_word([](DeviceConfig& c) { c.map_mode = AddrMapMode::BankFirst; }),
       3},
      {"vault_schedule", cfg_word([](DeviceConfig& c) {
         c.vault_schedule = VaultSchedule::StrictFifo;
       }),
       7},
      {"row_policy",
       cfg_word([](DeviceConfig& c) { c.row_policy = RowPolicy::OpenPage; }),
       9},
      {"model_data",
       cfg_word([](DeviceConfig& c) { c.model_data = !c.model_data; }), 2},
      {"model_data",
       cfg_word([](DeviceConfig& c) { c.model_data = !c.model_data; }), 3},
      {"vault_remap",
       cfg_word([](DeviceConfig& c) { c.vault_remap = !c.vault_remap; }), 2},
      {"link_protocol",
       cfg_word([](DeviceConfig& c) { c.link_protocol = !c.link_protocol; }),
       3},
  };
  for (const auto& c : cases) {
    std::string bytes = base;
    test::forge_word(bytes, cfg, c.word, c.bad);
    expect_rejected(bytes, ckpt::kSectionConfig,
                    std::string(c.name) + " = " + std::to_string(c.bad));
  }

  // The watchdog section opens with the fired flag.
  std::string bytes = base;
  test::forge_word(bytes, test::find_section(bytes, ckpt::kSectionWatchdog), 0,
                   2);
  expect_rejected(bytes, ckpt::kSectionWatchdog, "watchdog fired = 2");
}

TEST(CheckpointForged, LifecycleTagPastItsTypeIsRejected) {
  // A queued request's lifecycle tag is a 16-bit Tag: a word past it must
  // not restore truncated (0x10000 as tag 0).
  Simulator sim = test::make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x40, 5), Status::Ok);
  const std::string base = save(sim);
  Simulator edited = restored_from(base);
  edited.device(0).links[0].rqst.front().life.tag ^= 1;
  const usize tag_word =
      differing_word(base, save(edited), ckpt::kSectionDevice);

  std::string bytes = base;
  test::forge_word(bytes, test::find_section(bytes, ckpt::kSectionDevice),
                   tag_word, 0x10000);
  expect_rejected(bytes, ckpt::kSectionDevice, "lifecycle tag 0x10000");
}

TEST(CheckpointForged, BackendFrameMustMatchItsVault) {
  // One pcm_like vault, its write gap on, among hmc_dram vaults.
  constexpr u32 kPcmVault = 3;
  constexpr u32 kDramVault = 4;
  DeviceConfig dc = small_device();
  dc.vault_backends = {{kPcmVault, TimingBackend::PcmLike}};
  dc.pcm_write_gap_cycles = 6;
  const std::string base = save(test::make_simple_sim(dc));
  (void)restored_from(base);

  // A vault's bank-timing frame (kind, byte length, state words) follows
  // its DRAM RNG word.
  const auto frame_word = [&](u32 vault) {
    Simulator edited = restored_from(base);
    SplitMix64& rng = edited.device(0).vaults[vault].dram_rng;
    rng = SplitMix64(rng.state() ^ 1);
    return differing_word(base, save(edited), ckpt::kSectionDevice) + 1;
  };
  const usize pcm = frame_word(kPcmVault);
  const usize dram = frame_word(kDramVault);
  const test::CkptSection devc =
      test::find_section(base, ckpt::kSectionDevice);
  const auto word = [&](usize w) {
    return test::load_word(base, devc.payload + 8 * w);
  };
  ASSERT_EQ(word(pcm), static_cast<u64>(TimingBackend::PcmLike));
  ASSERT_EQ(word(pcm + 1), 8u);
  ASSERT_EQ(word(dram), static_cast<u64>(TimingBackend::HmcDram));
  ASSERT_EQ(word(dram + 1), 0u);

  const struct {
    const char* what;
    usize word;
    u64 bad;
  } cases[] = {
      {"pcm_like frame kind = hmc_dram", pcm,
       static_cast<u64>(TimingBackend::HmcDram)},
      {"pcm_like frame length 0", pcm + 1, 0},
      {"pcm_like frame length 16", pcm + 1, 16},
      {"hmc_dram frame length 8", dram + 1, 8},
  };
  for (const auto& c : cases) {
    std::string bytes = base;
    test::forge_word(bytes, devc, c.word, c.bad);
    expect_rejected(bytes, ckpt::kSectionDevice, c.what);
  }
}

}  // namespace
}  // namespace hmcsim
