#include "core/config_file.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/simulator.hpp"

namespace hmcsim {
namespace {

TEST(ConfigFile, EmptyStreamYieldsDefaults) {
  const auto r = parse_config_string("");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.num_devices, 1u);
  EXPECT_EQ(r.config.device.num_links, 4u);
  EXPECT_EQ(r.config.device.banks_per_vault, 8u);
}

TEST(ConfigFile, FullTable1ConfigC) {
  const auto r = parse_config_string(R"(
# Table I configuration C
num_devices   = 1
num_links     = 8
banks_per_vault = 8
xbar_depth    = 128
vault_depth   = 64
capacity_gb   = 4        # cross-checked against the geometry
map_mode      = low_interleave
vault_schedule = bank_ready
sim_threads   = 4        # written by earlier versions; accepted, no effect
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.device.num_links, 8u);
  EXPECT_EQ(r.config.device.capacity_bytes, u64{4} << 30);
  EXPECT_EQ(r.config.device.xbar_depth, 128u);
}

TEST(ConfigFile, CommentsAndWhitespaceAreTolerated) {
  const auto r = parse_config_string(
      "  # leading comment\n"
      "\n"
      "\tnum_links =\t8   # trailing comment\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.device.num_links, 8u);
}

TEST(ConfigFile, UnknownKeyIsAnErrorWithLineNumber) {
  const auto r = parse_config_string("num_links = 4\nnum_linkss = 8\n");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("2:"), std::string::npos);
  EXPECT_NE(r.error.find("num_linkss"), std::string::npos);
}

TEST(ConfigFile, MalformedLinesAreErrors) {
  EXPECT_FALSE(parse_config_string("num_links 4").ok);          // no '='
  EXPECT_FALSE(parse_config_string("num_links =").ok);          // no value
  EXPECT_FALSE(parse_config_string("= 4").ok);                  // no key
  EXPECT_FALSE(parse_config_string("num_links = four").ok);     // not number
  EXPECT_FALSE(parse_config_string("map_mode = diagonal").ok);  // bad enum
  EXPECT_FALSE(parse_config_string("model_data = maybe").ok);
  // A value too large for its field is an error naming the line and key,
  // never a silent truncation.
  const struct {
    const char* key;
    const char* value;
  } kTooLarge[] = {
      {"num_links", "4294967300"},            // would wrap to 4
      {"link_error_rate_ppm", "4294967296"},  // would wrap to 0
      {"capacity_gb", "17179869186"},         // would wrap to 2 GiB
  };
  for (const auto& [key, value] : kTooLarge) {
    const auto r =
        parse_config_string(std::string(key) + " = " + value + "\n");
    ASSERT_FALSE(r.ok) << key;
    EXPECT_EQ(r.error.rfind(std::string("1: ") + key, 0), 0u) << r.error;
  }
}

TEST(ConfigFile, SemanticValidationStillApplies) {
  // Parseable but architecturally invalid: 6 links.
  const auto r = parse_config_string("num_links = 6\n");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("invalid configuration"), std::string::npos);
  // Capacity mismatch caught by the cross-check.
  EXPECT_FALSE(parse_config_string("num_links = 4\ncapacity_gb = 8\n").ok);
}

TEST(ConfigFile, EnumsAndBooleans) {
  const auto r = parse_config_string(
      "map_mode = linear\n"
      "vault_schedule = strict_fifo\n"
      "model_data = false\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.device.map_mode, AddrMapMode::Linear);
  EXPECT_EQ(r.config.device.vault_schedule, VaultSchedule::StrictFifo);
  EXPECT_FALSE(r.config.device.model_data);
}

TEST(ConfigFile, WriteParseRoundTrip) {
  SimConfig original;
  original.num_devices = 1;
  original.device = table1_config_8link_16bank();
  original.device.map_mode = AddrMapMode::BankFirst;
  original.device.vault_schedule = VaultSchedule::StrictFifo;
  original.device.link_protocol = true;  // link errors need the protocol
  original.device.link_error_rate_ppm = 1234;
  original.device.link_retry_limit = 3;
  original.device.refresh_interval_cycles = 9750;
  original.device.model_data = false;

  std::ostringstream os;
  write_config(os, original);
  const auto r = parse_config_string(os.str());
  ASSERT_TRUE(r.ok) << r.error;
  const DeviceConfig& a = original.device;
  const DeviceConfig& b = r.config.device;
  EXPECT_EQ(a.num_links, b.num_links);
  EXPECT_EQ(a.banks_per_vault, b.banks_per_vault);
  EXPECT_EQ(a.xbar_depth, b.xbar_depth);
  EXPECT_EQ(a.vault_depth, b.vault_depth);
  EXPECT_EQ(a.map_mode, b.map_mode);
  EXPECT_EQ(a.vault_schedule, b.vault_schedule);
  EXPECT_EQ(a.link_protocol, b.link_protocol);
  EXPECT_EQ(a.link_error_rate_ppm, b.link_error_rate_ppm);
  EXPECT_EQ(a.link_retry_limit, b.link_retry_limit);
  EXPECT_EQ(a.refresh_interval_cycles, b.refresh_interval_cycles);
  EXPECT_EQ(a.model_data, b.model_data);
  EXPECT_EQ(a.derived_capacity(), b.derived_capacity());
}

TEST(ConfigFile, LinkProtocolKnobsRoundTrip) {
  const auto r = parse_config_string(
      "link_protocol = true\n"
      "link_retry_limit = 8\n"
      "link_tokens = 48\n"
      "link_retry_buffer_flits = 64\n"
      "link_retry_latency = 12\n"
      "link_error_burst_len = 4\n"
      "link_stuck_interval_cycles = 512\n"
      "link_stuck_window_cycles = 32\n"
      "link_fail_threshold = 3\n");
  ASSERT_TRUE(r.ok) << r.error;
  const DeviceConfig& dc = r.config.device;
  EXPECT_TRUE(dc.link_protocol);
  EXPECT_EQ(dc.link_tokens, 48u);
  EXPECT_EQ(dc.link_retry_buffer_flits, 64u);
  EXPECT_EQ(dc.link_retry_latency, 12u);
  EXPECT_EQ(dc.link_error_burst_len, 4u);
  EXPECT_EQ(dc.link_stuck_interval_cycles, 512u);
  EXPECT_EQ(dc.link_stuck_window_cycles, 32u);
  EXPECT_EQ(dc.link_fail_threshold, 3u);

  // Writer emits every knob; re-parsing converges to the same config.
  std::ostringstream os;
  write_config(os, r.config);
  const auto round = parse_config_string(os.str());
  ASSERT_TRUE(round.ok) << round.error;
  EXPECT_TRUE(round.config.device.link_protocol);
  EXPECT_EQ(round.config.device.link_tokens, 48u);
  EXPECT_EQ(round.config.device.link_stuck_interval_cycles, 512u);
  EXPECT_EQ(round.config.device.link_fail_threshold, 3u);
}

TEST(ConfigFile, LinkProtocolSemanticValidationStillApplies) {
  // Parsing is syntactic; the semantic cross-check (sub-knobs need the
  // protocol) still runs before a config is accepted.
  const auto r = parse_config_string("link_tokens = 32\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("link_protocol"), std::string::npos) << r.error;
}

TEST(ConfigFile, LinkErrorRateRequiresTheProtocol) {
  // Link errors are modelled by the link retry protocol alone: a nonzero
  // rate with the protocol off is refused by the parser's semantic check
  // and by Simulator::init, with a message naming the key.
  const auto r = parse_config_string("link_error_rate_ppm = 5000\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("link_error_rate_ppm"), std::string::npos)
      << r.error;

  SimConfig sc;
  sc.device.link_error_rate_ppm = 5000;
  Simulator sim;
  std::string diag;
  EXPECT_EQ(sim.init(sc, make_simple(sc.device.num_links), &diag),
            Status::InvalidConfig);
  EXPECT_NE(diag.find("link_error_rate_ppm"), std::string::npos) << diag;

  const auto on = parse_config_string(
      "link_protocol = true\n"
      "link_retry_limit = 4\n"
      "link_error_rate_ppm = 5000\n");
  ASSERT_TRUE(on.ok) << on.error;
  Simulator live;
  EXPECT_EQ(live.init(on.config,
                      make_simple(on.config.device.num_links), &diag),
            Status::Ok)
      << diag;
}

TEST(ConfigFile, FaultKnobsParse) {
  const auto r = parse_config_string(
      "link_protocol = true\n"
      "link_error_rate_ppm = 5000\n"
      "fault_seed = 42\n"
      "link_retry_limit = 7\n"
      "refresh_interval_cycles = 9750\n"
      "refresh_busy_cycles = 440\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.device.link_error_rate_ppm, 5000u);
  EXPECT_EQ(r.config.device.fault_seed, 42u);
  EXPECT_EQ(r.config.device.link_retry_limit, 7u);
  EXPECT_EQ(r.config.device.refresh_interval_cycles, 9750u);
}

TEST(ConfigFile, TimingBackendKnobsParse) {
  const auto r = parse_config_string(
      "timing_backend = generic_ddr\n"
      "ddr_tcl = 7\n"
      "ddr_trcd = 4\n"
      "ddr_trp = 4\n"
      "ddr_tras = 12\n"
      "vault_backend = 3:pcm_like\n"
      "vault_backend = 8-10:hmc_dram\n"
      "pcm_read_cycles = 20\n"
      "pcm_write_cycles = 60\n"
      "pcm_write_gap_cycles = 9\n");
  ASSERT_TRUE(r.ok) << r.error;
  const DeviceConfig& dc = r.config.device;
  EXPECT_EQ(dc.timing_backend, TimingBackend::GenericDdr);
  EXPECT_EQ(dc.ddr_tcl, 7u);
  EXPECT_EQ(dc.ddr_tras, 12u);
  EXPECT_EQ(dc.pcm_write_cycles, 60u);
  EXPECT_EQ(dc.pcm_write_gap_cycles, 9u);
  ASSERT_EQ(dc.vault_backends.size(), 4u);
  EXPECT_EQ(dc.backend_for_vault(3), TimingBackend::PcmLike);
  EXPECT_EQ(dc.backend_for_vault(9), TimingBackend::HmcDram);
  EXPECT_EQ(dc.backend_for_vault(0), TimingBackend::GenericDdr);
}

TEST(ConfigFile, UnknownBackendNameIsAnErrorWithLineNumber) {
  const auto r =
      parse_config_string("num_links = 4\ntiming_backend = nvdimm\n");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("2:"), std::string::npos);
  EXPECT_NE(r.error.find("nvdimm"), std::string::npos);
  // The diagnostic names the valid choices.
  EXPECT_NE(r.error.find("pcm_like"), std::string::npos);
}

TEST(ConfigFile, MalformedVaultBackendSpecsAreErrors) {
  EXPECT_FALSE(parse_config_string("vault_backend = pcm_like").ok);
  EXPECT_FALSE(parse_config_string("vault_backend = 3:").ok);
  EXPECT_FALSE(parse_config_string("vault_backend = :pcm_like").ok);
  EXPECT_FALSE(parse_config_string("vault_backend = three:pcm_like").ok);
  EXPECT_FALSE(parse_config_string("vault_backend = 3:nvdimm").ok);
  EXPECT_FALSE(parse_config_string("vault_backend = 99:pcm_like").ok);
  EXPECT_FALSE(parse_config_string("vault_backend = 5-3:pcm_like").ok);
  // Duplicate index, whether listed twice or covered by two ranges.
  const auto dup = parse_config_string(
      "vault_backend = 3:pcm_like\nvault_backend = 1-4:generic_ddr\n");
  ASSERT_FALSE(dup.ok);
  EXPECT_NE(dup.error.find("twice"), std::string::npos);
}

TEST(ConfigFile, InvalidBackendParamsAreRejected) {
  // Parseable but semantically invalid: zero CAS latency, zero read
  // latency, and a write latency below the read latency.
  EXPECT_FALSE(
      parse_config_string("timing_backend = generic_ddr\nddr_tcl = 0\n").ok);
  EXPECT_FALSE(
      parse_config_string("timing_backend = pcm_like\npcm_read_cycles = 0\n")
          .ok);
  EXPECT_FALSE(parse_config_string("timing_backend = pcm_like\n"
                                   "pcm_read_cycles = 30\n"
                                   "pcm_write_cycles = 10\n")
                   .ok);
}

TEST(ConfigFile, ChaosInvariantsKnobParsesAndRoundTrips) {
  const auto r = parse_config_string("chaos_invariants = 512\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.device.chaos_invariants, 512u);
  std::ostringstream os;
  write_config(os, r.config);
  const auto round = parse_config_string(os.str());
  ASSERT_TRUE(round.ok) << round.error;
  EXPECT_EQ(round.config.device.chaos_invariants, 512u);
  const auto bad = parse_config_string("chaos_invariants = lots\n");
  ASSERT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("needs a number"), std::string::npos);
}

TEST(ConfigFile, OverlongLinesAreRefusedWithALineNumber) {
  // A hostile or corrupt file must not balloon memory line by line: any
  // line past the 64 KiB bound is a typed error, not a silent read.
  std::string text = "num_links = 4\nfault_seed = ";
  text.append(70000, '1');
  text += "\n";
  const auto r = parse_config_string(text);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.substr(0, 2), "2:");
  EXPECT_NE(r.error.find("65536"), std::string::npos);
}

TEST(ConfigFile, VaultBackendSelectionRoundTrips) {
  SimConfig original;
  original.device.timing_backend = TimingBackend::PcmLike;
  original.device.vault_backends = {{0, TimingBackend::HmcDram},
                                    {5, TimingBackend::GenericDdr},
                                    {15, TimingBackend::PcmLike}};
  original.device.ddr_tcl = 8;
  original.device.pcm_read_cycles = 18;
  original.device.pcm_write_cycles = 50;
  original.device.pcm_write_gap_cycles = 4;

  std::ostringstream os;
  write_config(os, original);
  const auto r = parse_config_string(os.str());
  ASSERT_TRUE(r.ok) << r.error;
  const DeviceConfig& a = original.device;
  const DeviceConfig& b = r.config.device;
  EXPECT_EQ(a.timing_backend, b.timing_backend);
  EXPECT_EQ(a.vault_backends, b.vault_backends);
  EXPECT_EQ(a.ddr_tcl, b.ddr_tcl);
  EXPECT_EQ(a.pcm_read_cycles, b.pcm_read_cycles);
  EXPECT_EQ(a.pcm_write_cycles, b.pcm_write_cycles);
  EXPECT_EQ(a.pcm_write_gap_cycles, b.pcm_write_gap_cycles);
}

}  // namespace
}  // namespace hmcsim
