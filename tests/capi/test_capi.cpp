// The C-compatible API shim: the paper's Figure 4 calling sequence plus
// error handling, tracing hooks, and the classic return-code protocol.
#include "capi/hmc_sim.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "chaos/plan.hpp"
#include "core/simulator.hpp"

namespace {

/// Bring up the fixture geometry on a fresh handle (4 links, all host).
void init_handle(hmcsim_t& hmc) {
  ASSERT_EQ(hmcsim_init(&hmc, 1, 4, 16, 64, 8, 8, 2, 128), 0);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(hmcsim_link_config(&hmc, 2, 0, i, i, HMC_LINK_HOST_DEV), 0);
  }
}

/// Everything a FILE* received, read back from the start.
std::string slurp(FILE* f) {
  std::rewind(f);
  std::string contents;
  char buf[512];
  while (std::fgets(buf, sizeof buf, f) != nullptr) contents += buf;
  return contents;
}

struct HmcFixture : ::testing::Test {
  void SetUp() override { init_handle(hmc); }
  void TearDown() override { EXPECT_EQ(hmcsim_free(&hmc), 0); }

  hmcsim_t hmc{};
};

TEST(CApiInit, RejectsBadGeometry) {
  hmcsim_t hmc{};
  // num_vaults must equal num_links * 4.
  EXPECT_EQ(hmcsim_init(&hmc, 1, 4, 32, 64, 8, 8, 2, 128), -1);
  // capacity mismatch (4-link/8-bank must be 2 GB).
  EXPECT_EQ(hmcsim_init(&hmc, 1, 4, 16, 64, 8, 8, 8, 128), -1);
  // bad link count.
  EXPECT_EQ(hmcsim_init(&hmc, 1, 6, 24, 64, 8, 8, 2, 128), -1);
  // capacity in GB whose byte count wraps u64 (2^34 + 2 GB would wrap to
  // 2 GB, the right size for this geometry).
  EXPECT_EQ(hmcsim_init(&hmc, 1, 4, 16, 64, 8, 8, (1ull << 34) + 2, 128), -1);
  // null object.
  EXPECT_EQ(hmcsim_init(nullptr, 1, 4, 16, 64, 8, 8, 2, 128), -1);
}

TEST(CApiInit, ZeroCapacityDerivesFromGeometry) {
  hmcsim_t hmc{};
  ASSERT_EQ(hmcsim_init(&hmc, 1, 8, 32, 64, 16, 8, 0, 128), 0);
  EXPECT_EQ(hmcsim_free(&hmc), 0);
}

TEST_F(HmcFixture, Figure4Sequence) {
  uint64_t payload[8];
  for (int i = 0; i < 8; ++i) payload[i] = 0x0101010101010101ull * (i + 1);
  uint64_t packet[HMC_MAX_UQ_PACKET];
  uint64_t head = 0, tail = 0;

  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x5000, 1, HMC_WR64, 0, payload,
                                    &head, &tail, packet),
            0);
  EXPECT_NE(head, 0u);
  EXPECT_NE(tail, 0u);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);

  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x5000, 2, HMC_RD64, 0, nullptr,
                                    &head, &tail, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);

  int received = 0;
  bool saw_write = false, saw_read = false;
  for (int cycle = 0; cycle < 64 && received < 2; ++cycle) {
    ASSERT_EQ(hmcsim_clock(&hmc), 0);
    while (hmcsim_recv(&hmc, 0, 0, packet) == 0) {
      hmc_rsp_t type;
      uint16_t tag;
      uint32_t errstat;
      ASSERT_EQ(hmcsim_decode_memresponse(&hmc, packet, &type, &tag,
                                          &errstat),
                0);
      EXPECT_EQ(errstat, 0u);
      if (type == HMC_RSP_WR) {
        saw_write = true;
        EXPECT_EQ(tag, 1);
      }
      if (type == HMC_RSP_RD) {
        saw_read = true;
        EXPECT_EQ(tag, 2);
        EXPECT_EQ(packet[1], payload[0]);  // first data word round-trips
      }
      ++received;
    }
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_read);
  EXPECT_GT(hmcsim_get_clock(&hmc), 0u);
}

TEST_F(HmcFixture, StallProtocol) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  // Fill link 0's 128-slot crossbar queue without clocking.
  int sent = 0, rc = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 64 * i, i % 512, HMC_RD16, 0,
                                      nullptr, nullptr, nullptr, packet),
              0);
    rc = hmcsim_send(&hmc, packet);
    if (rc != 0) break;
    ++sent;
  }
  EXPECT_EQ(rc, HMC_STALL);
  EXPECT_EQ(sent, 128);
}

TEST_F(HmcFixture, RecvProtocol) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  // 1 == no response pending (distinct from -1 hard errors).
  EXPECT_EQ(hmcsim_recv(&hmc, 0, 0, packet), 1);
  EXPECT_EQ(hmcsim_recv(&hmc, 0, 99, packet), -1);
  EXPECT_EQ(hmcsim_recv(&hmc, 7, 0, packet), -1);
}

TEST_F(HmcFixture, ZeroCrcIsSealedByShim) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x100, 3, HMC_RD16, 1, nullptr,
                                    nullptr, nullptr, packet),
            0);
  packet[1] &= 0x00000000FFFFFFFFull;  // zero the CRC field of the tail
  EXPECT_EQ(hmcsim_send(&hmc, packet), 0);
}

TEST_F(HmcFixture, CorruptCrcRejected) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x100, 3, HMC_RD16, 1, nullptr,
                                    nullptr, nullptr, packet),
            0);
  packet[1] ^= 0xDEAD00000000ull;  // corrupt (nonzero) CRC
  EXPECT_EQ(hmcsim_send(&hmc, packet), -1);
}

TEST_F(HmcFixture, JtagRegisterInterface) {
  uint64_t value = 0;
  ASSERT_EQ(hmcsim_jtag_reg_read(&hmc, 0, 0x2f0001u, &value), 0);  // RVID
  EXPECT_NE(value, 0u);
  ASSERT_EQ(hmcsim_jtag_reg_write(&hmc, 0, 0x280000u, 0x99), 0);   // GC
  ASSERT_EQ(hmcsim_jtag_reg_read(&hmc, 0, 0x280000u, &value), 0);
  EXPECT_EQ(value, 0x99u);
  EXPECT_EQ(hmcsim_jtag_reg_read(&hmc, 0, 0x424242u, &value), -1);
  EXPECT_EQ(hmcsim_jtag_reg_write(&hmc, 0, 0x2f0001u, 1), -1);  // RO
}

TEST_F(HmcFixture, BuildRequestValidation) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  // Write without payload pointer.
  EXPECT_EQ(hmcsim_build_memrequest(&hmc, 0, 0, 0, HMC_WR64, 0, nullptr,
                                    nullptr, nullptr, packet),
            -1);
  // Null packet buffer.
  EXPECT_EQ(hmcsim_build_memrequest(&hmc, 0, 0, 0, HMC_RD16, 0, nullptr,
                                    nullptr, nullptr, nullptr),
            -1);
  // Address beyond the 34-bit field.
  EXPECT_EQ(hmcsim_build_memrequest(&hmc, 0, 1ull << 34, 0, HMC_RD16, 0,
                                    nullptr, nullptr, nullptr, packet),
            -1);
}

TEST(CApiTopology, LinkConfigRules) {
  hmcsim_t hmc{};
  ASSERT_EQ(hmcsim_init(&hmc, 2, 4, 16, 64, 8, 8, 0, 128), 0);
  // Host links require a host-side id greater than the device count.
  EXPECT_EQ(hmcsim_link_config(&hmc, 0, 0, 0, 0, HMC_LINK_HOST_DEV), -1);
  EXPECT_EQ(hmcsim_link_config(&hmc, 3, 0, 0, 0, HMC_LINK_HOST_DEV), 0);
  // Loopback rejected.
  EXPECT_EQ(hmcsim_link_config(&hmc, 1, 1, 1, 2, HMC_LINK_DEV_DEV), -1);
  // Proper chain link.
  EXPECT_EQ(hmcsim_link_config(&hmc, 0, 1, 3, 0, HMC_LINK_DEV_DEV), 0);
  EXPECT_EQ(hmcsim_free(&hmc), 0);
}

TEST(CApiTopology, ChainedAccessThroughCApi) {
  hmcsim_t hmc{};
  ASSERT_EQ(hmcsim_init(&hmc, 2, 4, 16, 64, 8, 8, 0, 128), 0);
  ASSERT_EQ(hmcsim_link_config(&hmc, 3, 0, 0, 0, HMC_LINK_HOST_DEV), 0);
  ASSERT_EQ(hmcsim_link_config(&hmc, 0, 1, 3, 0, HMC_LINK_DEV_DEV), 0);

  uint64_t packet[HMC_MAX_UQ_PACKET];
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, /*cub=*/1, 0x40, 7, HMC_RD16, 0,
                                    nullptr, nullptr, nullptr, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  int got = 1;
  for (int i = 0; i < 100; ++i) {
    hmcsim_clock(&hmc);
    got = hmcsim_recv(&hmc, 0, 0, packet);
    if (got == 0) break;
  }
  EXPECT_EQ(got, 0);
  hmc_rsp_t type;
  uint16_t tag;
  uint32_t errstat;
  ASSERT_EQ(hmcsim_decode_memresponse(&hmc, packet, &type, &tag, &errstat),
            0);
  EXPECT_EQ(type, HMC_RSP_RD);
  EXPECT_EQ(tag, 7);
  EXPECT_EQ(errstat, 0u);
  EXPECT_EQ(hmcsim_free(&hmc), 0);
}

TEST_F(HmcFixture, UtilityBlockSizeAndDecode) {
  uint32_t bsize = 0;
  ASSERT_EQ(hmcsim_util_get_max_blocksize(&hmc, 0, &bsize), 0);
  EXPECT_EQ(bsize, 128u);  // default
  ASSERT_EQ(hmcsim_util_set_max_blocksize(&hmc, 0, 64), 0);
  ASSERT_EQ(hmcsim_util_get_max_blocksize(&hmc, 0, &bsize), 0);
  EXPECT_EQ(bsize, 64u);
  EXPECT_EQ(hmcsim_util_set_max_blocksize(&hmc, 0, 48), -1);
  EXPECT_EQ(hmcsim_util_set_max_blocksize(&hmc, 9, 64), -1);

  // With 64-byte blocks, consecutive blocks interleave across vaults.
  uint32_t vault = 99, bank = 99, quad = 99;
  ASSERT_EQ(hmcsim_util_decode_vault(&hmc, 0, &vault), 0);
  EXPECT_EQ(vault, 0u);
  ASSERT_EQ(hmcsim_util_decode_vault(&hmc, 64, &vault), 0);
  EXPECT_EQ(vault, 1u);
  ASSERT_EQ(hmcsim_util_decode_bank(&hmc, 0, &bank), 0);
  EXPECT_EQ(bank, 0u);
  ASSERT_EQ(hmcsim_util_decode_quad(&hmc, 64 * 5, &quad), 0);
  EXPECT_EQ(quad, 1u);  // vault 5 lives in quad 1
  // Out-of-capacity address rejected.
  EXPECT_EQ(hmcsim_util_decode_vault(&hmc, 1ull << 33, &vault), -1);

  // Block size cannot change after the topology freezes.
  uint64_t packet[HMC_MAX_UQ_PACKET];
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x40, 1, HMC_RD16, 0, nullptr,
                                    nullptr, nullptr, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  EXPECT_EQ(hmcsim_util_set_max_blocksize(&hmc, 0, 128), -1);
}

TEST_F(HmcFixture, TimingBackendSelection) {
  // Pre-freeze: selections are accepted; a repeat replaces the earlier one.
  ASSERT_EQ(hmcsim_timing_backend(&hmc, "pcm_like"), 0);
  ASSERT_EQ(hmcsim_timing_backend(&hmc, "generic_ddr"), 0);
  ASSERT_EQ(hmcsim_vault_timing_backend(&hmc, 3, "pcm_like"), 0);
  ASSERT_EQ(hmcsim_vault_timing_backend(&hmc, 3, "hmc_dram"), 0);
  // Unknown names and out-of-range vaults are rejected — and leave the
  // configuration usable.
  EXPECT_EQ(hmcsim_timing_backend(&hmc, "nvdimm"), -1);
  EXPECT_EQ(hmcsim_timing_backend(&hmc, nullptr), -1);
  EXPECT_EQ(hmcsim_vault_timing_backend(&hmc, 99, "pcm_like"), -1);

  uint64_t packet[HMC_MAX_UQ_PACKET];
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x100, 1, HMC_RD16, 0, nullptr,
                                    nullptr, nullptr, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  for (int i = 0; i < 32; ++i) ASSERT_EQ(hmcsim_clock(&hmc), 0);
  uint64_t v = ~0ull;
  EXPECT_EQ(hmcsim_get_stat(&hmc, 0, "pcm_write_throttle_stalls", &v), 0);
  EXPECT_EQ(v, 0u);  // read-only traffic never trips the write throttle
  hmcsim_stats stats{};
  ASSERT_EQ(hmcsim_get_stats(&hmc, 0, &stats), 0);
  EXPECT_EQ(stats.pcm_write_throttle_stalls, 0u);

  // Post-freeze selections are rejected like every topology-time setter.
  EXPECT_EQ(hmcsim_timing_backend(&hmc, "hmc_dram"), -1);
  EXPECT_EQ(hmcsim_vault_timing_backend(&hmc, 0, "hmc_dram"), -1);
}

TEST_F(HmcFixture, StatCounters) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x40, 1, HMC_RD16, 0, nullptr,
                                    nullptr, nullptr, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  for (int i = 0; i < 10; ++i) hmcsim_clock(&hmc);
  (void)hmcsim_recv(&hmc, 0, 0, packet);

  uint64_t value = 0;
  ASSERT_EQ(hmcsim_get_stat(&hmc, 0, "reads", &value), 0);
  EXPECT_EQ(value, 1u);
  ASSERT_EQ(hmcsim_get_stat(&hmc, 0, "sends", &value), 0);
  EXPECT_EQ(value, 1u);
  ASSERT_EQ(hmcsim_get_stat(&hmc, 0, "recvs", &value), 0);
  EXPECT_EQ(value, 1u);
  ASSERT_EQ(hmcsim_get_stat(&hmc, 0, "writes", &value), 0);
  EXPECT_EQ(value, 0u);
  EXPECT_EQ(hmcsim_get_stat(&hmc, 0, "bogus", &value), -1);
  EXPECT_EQ(hmcsim_get_stat(&hmc, 5, "reads", &value), -1);
}

TEST_F(HmcFixture, JsonDump) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x40, 1, HMC_RD16, 0, nullptr,
                                    nullptr, nullptr, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  for (int i = 0; i < 10; ++i) hmcsim_clock(&hmc);

  FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ASSERT_EQ(hmcsim_dump_stats_json(&hmc, tmp), 0);
  EXPECT_EQ(hmcsim_dump_stats_json(&hmc, nullptr), -1);
  const std::string contents = slurp(tmp);
  std::fclose(tmp);
  EXPECT_NE(contents.find("\"simulator\":\"hmcsim++\""), std::string::npos);
  EXPECT_NE(contents.find("\"reads\":1"), std::string::npos);
}

namespace {

// CMC handler for the C API test: fetch-and-add on word 0; old value back.
void c_fetch_add(uint64_t* memory, const uint64_t* operand,
                 uint64_t* response, void* user) {
  *static_cast<int*>(user) += 1;  // user-context plumbed through
  response[0] = memory[0];
  response[1] = 0;
  memory[0] += operand[0];
}

}  // namespace

TEST_F(HmcFixture, CustomCommandThroughTheCApi) {
  // Registration requires the frozen (clocked) state.
  ASSERT_EQ(hmcsim_clock(&hmc), 0);
  int handler_calls = 0;
  ASSERT_EQ(hmcsim_register_cmc(&hmc, 0x05, /*rqst_flits=*/2,
                                /*rsp_flits=*/2, /*access_bytes=*/16,
                                c_fetch_add, &handler_calls),
            0);
  // Duplicate and invalid registrations fail.
  EXPECT_EQ(hmcsim_register_cmc(&hmc, 0x05, 2, 2, 16, c_fetch_add, nullptr),
            -1);
  EXPECT_EQ(hmcsim_register_cmc(&hmc, 0x30, 2, 2, 16, c_fetch_add, nullptr),
            -1);  // RD16 is taken
  EXPECT_EQ(hmcsim_register_cmc(&hmc, 0x06, 2, 2, 16, nullptr, nullptr),
            -1);

  uint64_t packet[HMC_MAX_UQ_PACKET];
  const uint64_t operand[2] = {7, 0};
  // Unregistered encoding rejected by the builder.
  EXPECT_EQ(hmcsim_build_custom_request(&hmc, 0, 0x40, 1, 0x07, 0, operand,
                                        packet),
            -1);

  // Two fetch-adds: 0 -> 7 -> 14, old values 0 then 7.
  uint64_t expected_old = 0;
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(hmcsim_build_custom_request(&hmc, 0, 0x40,
                                          static_cast<uint16_t>(round + 1),
                                          0x05, 0, operand, packet),
              0);
    ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
    int rc = 1;
    for (int i = 0; i < 50 && rc != 0; ++i) {
      hmcsim_clock(&hmc);
      rc = hmcsim_recv(&hmc, 0, 0, packet);
    }
    ASSERT_EQ(rc, 0);
    hmc_rsp_t type;
    uint16_t tag;
    uint32_t errstat;
    ASSERT_EQ(hmcsim_decode_memresponse(&hmc, packet, &type, &tag, &errstat),
              0);
    EXPECT_EQ(type, HMC_RSP_RD);  // 2-FLIT CMC responses decode as RD_RS
    EXPECT_EQ(errstat, 0u);
    EXPECT_EQ(packet[1], expected_old);
    expected_old += operand[0];
  }
  EXPECT_EQ(handler_calls, 2);
  uint64_t counter = 0;
  ASSERT_EQ(hmcsim_get_stat(&hmc, 0, "custom_ops", &counter), 0);
  EXPECT_EQ(counter, 2u);
}

TEST_F(HmcFixture, GetStatsMatchesNamedCounters) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  uint64_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x40, 1, HMC_RD16, 0, nullptr,
                                    nullptr, nullptr, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x80, 2, HMC_WR64, 1, payload,
                                    nullptr, nullptr, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  for (int i = 0; i < 20; ++i) hmcsim_clock(&hmc);
  (void)hmcsim_recv(&hmc, 0, 0, packet);
  (void)hmcsim_recv(&hmc, 0, 1, packet);

  struct hmcsim_stats stats;
  ASSERT_EQ(hmcsim_get_stats(&hmc, 0, &stats), 0);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.sends, 2u);
  EXPECT_EQ(stats.bytes_written, 64u);
  // hmcsim_stats lays the counters out in kStatFields order, and every word
  // must agree with its hmcsim_get_stat counterpart: this pins the
  // table-driven name lookup against the explicit C struct copy.
  std::array<uint64_t, std::size(hmcsim::kStatFields)> words{};
  static_assert(sizeof(struct hmcsim_stats) == sizeof(words),
                "a new hmcsim_stats field needs a kStatFields entry");
  std::memcpy(words.data(), &stats, sizeof(words));
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string name(hmcsim::kStatFields[i].name);
    uint64_t value = ~0ull;
    ASSERT_EQ(hmcsim_get_stat(&hmc, 0, name.c_str(), &value), 0) << name;
    EXPECT_EQ(value, words[i]) << name;
  }
  // Invalid arguments.
  EXPECT_EQ(hmcsim_get_stats(&hmc, 5, &stats), -1);
  EXPECT_EQ(hmcsim_get_stats(&hmc, 0, nullptr), -1);
  EXPECT_EQ(hmcsim_get_stats(nullptr, 0, &stats), -1);
}

TEST_F(HmcFixture, LifecycleStatsAfterTraffic) {
  ASSERT_EQ(hmcsim_lifecycle_enable(&hmc), 0);
  ASSERT_EQ(hmcsim_lifecycle_enable(&hmc), 0);  // idempotent

  uint64_t packet[HMC_MAX_UQ_PACKET];
  uint64_t payload[8] = {0};
  int drained = 0;
  for (int r = 0; r < 4; ++r) {
    const bool write = (r % 2) == 1;
    ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x40u * (r + 1),
                                      static_cast<uint16_t>(r + 1),
                                      write ? HMC_WR64 : HMC_RD64, 0,
                                      write ? payload : nullptr, nullptr,
                                      nullptr, packet),
              0);
    ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  }
  for (int i = 0; i < 100 && drained < 4; ++i) {
    hmcsim_clock(&hmc);
    while (hmcsim_recv(&hmc, 0, 0, packet) == 0) ++drained;
  }
  ASSERT_EQ(drained, 4);

  hmcsim_latency_t total;
  ASSERT_EQ(hmcsim_lifecycle_stats(&hmc, HMC_OP_ALL, HMC_LC_TOTAL, &total), 0);
  EXPECT_EQ(total.count, 4u);
  EXPECT_GT(total.mean, 0.0);
  EXPECT_GE(total.max, total.min);
  EXPECT_GE(total.p99, total.p50);

  hmcsim_latency_t reads, writes;
  ASSERT_EQ(hmcsim_lifecycle_stats(&hmc, HMC_OP_READ, HMC_LC_TOTAL, &reads),
            0);
  ASSERT_EQ(hmcsim_lifecycle_stats(&hmc, HMC_OP_WRITE, HMC_LC_TOTAL, &writes),
            0);
  EXPECT_EQ(reads.count, 2u);
  EXPECT_EQ(writes.count, 2u);

  // Segment sums must be consistent with the end-to-end totals.
  uint64_t segment_sum = 0;
  for (int s = HMC_LC_XBAR; s <= HMC_LC_DRAIN; ++s) {
    hmcsim_latency_t seg;
    ASSERT_EQ(hmcsim_lifecycle_stats(&hmc, HMC_OP_ALL,
                                     static_cast<hmc_lifecycle_segment_t>(s),
                                     &seg),
              0);
    EXPECT_EQ(seg.count, 4u);
    segment_sum += static_cast<uint64_t>(seg.mean * seg.count + 0.5);
  }
  const uint64_t total_sum =
      static_cast<uint64_t>(total.mean * total.count + 0.5);
  EXPECT_NEAR(static_cast<double>(segment_sum),
              static_cast<double>(total_sum), 1.0);

  // Invalid arguments.
  EXPECT_EQ(hmcsim_lifecycle_stats(&hmc, HMC_OP_ALL, HMC_LC_TOTAL, nullptr),
            -1);
  EXPECT_EQ(hmcsim_lifecycle_stats(&hmc,
                                   static_cast<hmc_op_class_t>(99),
                                   HMC_LC_TOTAL, &total),
            -1);
  EXPECT_EQ(hmcsim_lifecycle_stats(&hmc, HMC_OP_ALL,
                                   static_cast<hmc_lifecycle_segment_t>(99),
                                   &total),
            -1);
}

TEST(CApiLifecycle, StatsBeforeEnableFail) {
  hmcsim_t hmc{};
  ASSERT_EQ(hmcsim_init(&hmc, 1, 4, 16, 8, 8, 8, 0, 8), 0);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(hmcsim_link_config(&hmc, 2, 0, i, i, HMC_LINK_HOST_DEV), 0);
  }
  hmcsim_latency_t out;
  EXPECT_EQ(hmcsim_lifecycle_stats(&hmc, HMC_OP_ALL, HMC_LC_TOTAL, &out), -1);
  // Enabling after the topology froze still works.
  ASSERT_EQ(hmcsim_clock(&hmc), 0);
  ASSERT_EQ(hmcsim_lifecycle_enable(&hmc), 0);
  ASSERT_EQ(hmcsim_lifecycle_stats(&hmc, HMC_OP_ALL, HMC_LC_TOTAL, &out), 0);
  EXPECT_EQ(out.count, 0u);
  EXPECT_EQ(hmcsim_free(&hmc), 0);
}

TEST(CApiTrace, TextTraceWrittenToFile) {
  hmcsim_t hmc{};
  ASSERT_EQ(hmcsim_init(&hmc, 1, 4, 16, 8, 8, 8, 0, 8), 0);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(hmcsim_link_config(&hmc, 2, 0, i, i, HMC_LINK_HOST_DEV), 0);
  }
  FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ASSERT_EQ(hmcsim_trace_handle(&hmc, tmp), 0);
  ASSERT_EQ(hmcsim_trace_level(&hmc, 3), 0);
  EXPECT_EQ(hmcsim_trace_level(&hmc, 9), -1);

  uint64_t packet[HMC_MAX_UQ_PACKET];
  ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x40, 1, HMC_RD16, 0, nullptr,
                                    nullptr, nullptr, packet),
            0);
  ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  for (int i = 0; i < 10; ++i) hmcsim_clock(&hmc);
  (void)hmcsim_recv(&hmc, 0, 0, packet);
  EXPECT_EQ(hmcsim_free(&hmc), 0);

  const std::string contents = slurp(tmp);
  std::fclose(tmp);
  EXPECT_NE(contents.find("HMCSIM_TRACE"), std::string::npos);
  EXPECT_NE(contents.find("RD16"), std::string::npos);
}

// ---- checkpoints, chaos, observability and the watchdog -------------------

/// A temporary file path unique to this process and test.
std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("hmcsim_capi_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Send one 16-byte read per tag, round-robin over the four host links.
void send_reads(hmcsim_t& hmc, uint16_t first_tag, uint16_t count) {
  uint64_t packet[HMC_MAX_UQ_PACKET];
  for (uint16_t t = first_tag; t < first_tag + count; ++t) {
    ASSERT_EQ(hmcsim_build_memrequest(&hmc, 0, 0x40ull * t, t, HMC_RD16,
                                      static_cast<uint8_t>(t % 4), nullptr,
                                      nullptr, nullptr, packet),
              0);
    ASSERT_EQ(hmcsim_send(&hmc, packet), 0);
  }
}

using Packet = std::array<uint64_t, HMC_MAX_UQ_PACKET>;

/// Clock `cycles` times, draining every host link after each clock.
std::vector<Packet> clock_and_drain(hmcsim_t& hmc, int cycles) {
  std::vector<Packet> got;
  for (int c = 0; c < cycles; ++c) {
    EXPECT_EQ(hmcsim_clock(&hmc), 0);
    for (uint32_t link = 0; link < 4; ++link) {
      Packet p{};
      while (hmcsim_recv(&hmc, 0, link, p.data()) == 0) {
        got.push_back(p);
        p = Packet{};
      }
    }
  }
  return got;
}

/// Save a checkpoint of a machine built through the C++ core, for state
/// the C API cannot configure itself (it has no setter for the watchdog
/// or the link protocol) but restores from a file like any other.
void save_core_checkpoint(hmcsim::Simulator& sim, const std::string& path) {
  hmcsim::CheckpointError err;
  ASSERT_EQ(sim.save_checkpoint_file(path, &err), hmcsim::Status::Ok)
      << err.message();
}

TEST(CApiCheckpoint, SaveRestoreRoundTripsAndNamesFailures) {
  const std::string path = temp_path("roundtrip.ckpt");
  hmcsim_t a{};
  init_handle(a);
  send_reads(a, 0, 64);
  for (int c = 0; c < 20; ++c) ASSERT_EQ(hmcsim_clock(&a), 0);
  ASSERT_EQ(hmcsim_checkpoint_save(&a, path.c_str()), 0)
      << hmcsim_last_error();
  EXPECT_STREQ(hmcsim_last_error(), "");

  // A second handle restores the snapshot and continues cycle-for-cycle.
  hmcsim_t b{};
  init_handle(b);
  ASSERT_EQ(hmcsim_checkpoint_restore(&b, path.c_str()), 0)
      << hmcsim_last_error();
  EXPECT_STREQ(hmcsim_last_error(), "");
  EXPECT_EQ(hmcsim_get_clock(&b), hmcsim_get_clock(&a));
  const std::vector<Packet> from_a = clock_and_drain(a, 400);
  const std::vector<Packet> from_b = clock_and_drain(b, 400);
  EXPECT_EQ(from_a.size(), 64u);
  EXPECT_EQ(from_a, from_b);
  EXPECT_EQ(hmcsim_get_clock(&b), hmcsim_get_clock(&a));

  // Failures return -1 and leave a reason behind.
  EXPECT_EQ(hmcsim_checkpoint_restore(&b, temp_path("missing.ckpt").c_str()),
            -1);
  EXPECT_GT(std::strlen(hmcsim_last_error()), 0u);
  EXPECT_EQ(hmcsim_checkpoint_save(&a, nullptr), -1);
  EXPECT_GT(std::strlen(hmcsim_last_error()), 0u);
  EXPECT_EQ(hmcsim_free(&a), 0);
  EXPECT_EQ(hmcsim_free(&b), 0);
  std::remove(path.c_str());
}

TEST(CApiCheckpoint, RestoreBeforeBringUpKeepsObservabilityKnobs) {
  const std::string path = temp_path("knobs.ckpt");
  {
    hmcsim::Simulator core;
    ASSERT_EQ(core.init_simple(hmcsim::DeviceConfig{}), hmcsim::Status::Ok);
    save_core_checkpoint(core, path);
  }
  // The knobs are set on a handle that has not been brought up yet (no
  // send, recv or clock), so they exist only in its pending config; the
  // checkpoint carries none of them, and the restore must keep them.
  hmcsim_t hmc{};
  init_handle(hmc);
  ASSERT_EQ(hmcsim_flight_recorder_depth(&hmc, 64), 0);
  ASSERT_EQ(hmcsim_profile_enable(&hmc), 0);
  ASSERT_EQ(hmcsim_telemetry_interval(&hmc, 4), 0);
  ASSERT_EQ(hmcsim_checkpoint_restore(&hmc, path.c_str()), 0)
      << hmcsim_last_error();
  for (int c = 0; c < 10; ++c) ASSERT_EQ(hmcsim_clock(&hmc), 0);

  FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(hmcsim_dump_flight_recorder(&hmc, out), 0);
  std::fclose(out);
  out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(hmcsim_dump_profile(&hmc, out), 0);
  EXPECT_NE(slurp(out).find("Occupancy Telemetry"), std::string::npos);
  std::fclose(out);
  EXPECT_EQ(hmcsim_free(&hmc), 0);
  std::remove(path.c_str());
}

TEST(CApiChaos, PlanArmsWithItsCadenceAndReportsViolations) {
  hmcsim_t hmc{};
  init_handle(hmc);
  ASSERT_EQ(hmcsim_chaos_invariants(&hmc, 64), 0);
  FILE* err = std::tmpfile();
  ASSERT_NE(err, nullptr);
  // The C API cannot turn the link protocol on, and link errors exist only
  // there: a link event is refused with a diagnostic naming its line.
  EXPECT_EQ(hmcsim_chaos_plan(&hmc, "at 10 link_error_ppm 2000\n", err), -1);
  const std::string diag = slurp(err);
  std::fclose(err);
  EXPECT_NE(diag.find("1: "), std::string::npos) << diag;
  EXPECT_NE(diag.find("link_protocol"), std::string::npos) << diag;
  EXPECT_EQ(hmcsim_chaos_invariants(&hmc, 32), -1);  // the plan call froze it

  // A structural storm arms and runs green under the invariant checker.
  ASSERT_EQ(hmcsim_chaos_plan(&hmc, "storm 20 200\n  wedge 3\nend\n",
                              nullptr),
            0);
  send_reads(hmc, 0, 32);
  EXPECT_EQ(clock_and_drain(hmc, 600).size(), 32u);
  EXPECT_EQ(hmcsim_chaos_violated(&hmc, nullptr), 0);

  // A protocol-on machine whose plan corrupts the token ledger at cycle
  // 100, restored into this handle: the restore keeps the handle's
  // cadence, and the first check after the corruption freezes the run.
  const std::string path = temp_path("broken.ckpt");
  {
    hmcsim::DeviceConfig dc;
    dc.link_protocol = true;
    dc.link_retry_limit = 8;
    hmcsim::Simulator core;
    ASSERT_EQ(core.init_simple(dc), hmcsim::Status::Ok);
    hmcsim::ChaosPlanParseResult plan =
        hmcsim::parse_chaos_plan_string("at 100 break_invariant 5\n");
    ASSERT_TRUE(plan.ok) << plan.error;
    ASSERT_EQ(core.set_chaos_plan(std::move(plan.plan)), hmcsim::Status::Ok);
    save_core_checkpoint(core, path);
  }
  ASSERT_EQ(hmcsim_checkpoint_restore(&hmc, path.c_str()), 0)
      << hmcsim_last_error();
  (void)clock_and_drain(hmc, 300);
  FILE* report = std::tmpfile();
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(hmcsim_chaos_violated(&hmc, report), 1);
  EXPECT_NE(slurp(report).find("link_token_identity"), std::string::npos);
  std::fclose(report);
  EXPECT_EQ(hmcsim_chaos_violated(nullptr, nullptr), -1);
  EXPECT_EQ(hmcsim_free(&hmc), 0);
  std::remove(path.c_str());
}

TEST_F(HmcFixture, ObservabilitySettersFeedTheirDumps) {
  FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  // Nothing to dump before bring-up, and nothing that was never enabled.
  EXPECT_EQ(hmcsim_dump_profile(&hmc, out), -1);
  EXPECT_EQ(hmcsim_dump_flight_recorder(&hmc, out), -1);
  ASSERT_EQ(hmcsim_profile_enable(&hmc), 0);
  ASSERT_EQ(hmcsim_telemetry_interval(&hmc, 16), 0);
  ASSERT_EQ(hmcsim_flight_recorder_depth(&hmc, 64), 0);

  send_reads(hmc, 0, 16);
  EXPECT_EQ(clock_and_drain(hmc, 300).size(), 16u);
  // The knobs are bring-up settings: the first send froze them.
  EXPECT_EQ(hmcsim_profile_enable(&hmc), -1);
  EXPECT_EQ(hmcsim_telemetry_interval(&hmc, 8), -1);
  EXPECT_EQ(hmcsim_flight_recorder_depth(&hmc, 8), -1);

  ASSERT_EQ(hmcsim_dump_profile(&hmc, out), 0);
  const std::string profile = slurp(out);
  EXPECT_NE(profile.find("Self-Profile"), std::string::npos) << profile;
  EXPECT_NE(profile.find("Occupancy Telemetry"), std::string::npos)
      << profile;
  std::fclose(out);

  // The idle tail after the reads drained fast-forwards, which the
  // recorder logs as skip spans.
  out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(hmcsim_dump_flight_recorder(&hmc, out), 0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("flight recorder dev 0"), std::string::npos) << text;
  EXPECT_NE(text.find("FF_SKIP_SPAN"), std::string::npos) << text;
  std::fclose(out);
  out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(hmcsim_dump_flight_recorder_chrome(&hmc, out), 0);
  const std::string chrome = slurp(out);
  EXPECT_EQ(chrome.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0),
            0u)
      << chrome;
  EXPECT_NE(chrome.find("FF_SKIP_SPAN"), std::string::npos) << chrome;
  EXPECT_EQ(hmcsim_dump_flight_recorder_chrome(&hmc, nullptr), -1);
  std::fclose(out);
  // The stats report carries the telemetry rows as its samples section.
  out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(hmcsim_dump_stats_json(&hmc, out), 0);
  const std::string json = slurp(out);
  EXPECT_NE(json.find("\"samples\":{\"interval\":16,\"data\":[{\"cycle\":16,"),
            std::string::npos)
      << json;
  std::fclose(out);
}

TEST(CApiWatchdog, FiresOnAWedgedMachine) {
  // Every bank of every vault busy forever, one read in flight, and a
  // 500-cycle watchdog: the request can never retire.
  const std::string path = temp_path("wedged.ckpt");
  {
    hmcsim::DeviceConfig dc;
    dc.watchdog_cycles = 500;
    hmcsim::Simulator core;
    ASSERT_EQ(core.init_simple(dc), hmcsim::Status::Ok);
    for (hmcsim::VaultState& vault : core.device(0).vaults) {
      for (hmcsim::Cycle& busy : vault.bank_busy_until) {
        busy = ~hmcsim::Cycle{0};
      }
    }
    save_core_checkpoint(core, path);
  }
  hmcsim_t hmc{};
  init_handle(hmc);
  EXPECT_EQ(hmcsim_watchdog_fired(&hmc, nullptr), 0);
  ASSERT_EQ(hmcsim_checkpoint_restore(&hmc, path.c_str()), 0)
      << hmcsim_last_error();
  send_reads(hmc, 0, 1);
  (void)clock_and_drain(hmc, 1000);
  FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(hmcsim_watchdog_fired(&hmc, out), 1);
  EXPECT_FALSE(slurp(out).empty());
  std::fclose(out);
  EXPECT_EQ(hmcsim_watchdog_fired(nullptr, nullptr), -1);
  EXPECT_EQ(hmcsim_free(&hmc), 0);
  std::remove(path.c_str());
}

}  // namespace
