// kConfigFields drives every surface that names a DeviceConfig field: the
// config file, the checkpoint CFG section and the JSON report's `config`
// echo.  Each test here sets every entry off its default and checks one
// surface carries every value back, so a field the table lists but a
// surface drops (or misspells) fails by name.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "core/config_file.hpp"
#include "core/simulator.hpp"

namespace hmcsim {
namespace {

/// A valid config with every device-state field and every execution knob
/// off its default.
DeviceConfig all_off_default() {
  DeviceConfig dc;
  dc.num_links = 8;
  dc.banks_per_vault = 16;
  dc.drams_per_bank = 16;
  dc.xbar_depth = 32;
  dc.vault_depth = 16;
  dc.capacity_bytes = dc.derived_capacity();
  dc.map_mode = AddrMapMode::BankFirst;
  dc.max_block_bytes = 64;
  dc.bank_busy_cycles = 12;
  dc.xbar_flits_per_cycle = 9;
  dc.vault_drain_limit = 3;
  dc.nonlocal_penalty_cycles = 5;
  dc.conflict_window = 7;
  dc.vault_schedule = VaultSchedule::StrictFifo;
  dc.link_error_rate_ppm = 1234;
  dc.fault_seed = 4242;
  dc.link_retry_limit = 11;
  dc.refresh_interval_cycles = 9750;
  dc.refresh_busy_cycles = 333;
  dc.row_policy = RowPolicy::OpenPage;
  dc.row_hit_cycles = 4;
  dc.row_miss_cycles = 29;
  dc.dram_sbe_rate_ppm = 5;
  dc.dram_dbe_rate_ppm = 2;
  dc.scrub_interval_cycles = 256;
  dc.scrub_window_bytes = 8192;
  dc.vault_fail_threshold = 8;
  dc.failed_vault_mask = 0x2;
  dc.vault_remap = true;
  dc.watchdog_cycles = 100000;
  dc.link_protocol = true;
  dc.link_tokens = 48;
  dc.link_retry_buffer_flits = 64;
  dc.link_retry_latency = 12;
  dc.link_error_burst_len = 4;
  dc.link_stuck_interval_cycles = 512;
  dc.link_stuck_window_cycles = 32;
  dc.link_fail_threshold = 3;
  dc.timing_backend = TimingBackend::GenericDdr;
  dc.vault_backends = {{2, TimingBackend::PcmLike}};
  dc.ddr_tcl = 7;
  dc.ddr_trcd = 4;
  dc.ddr_trp = 4;
  dc.ddr_tras = 12;
  dc.pcm_read_cycles = 20;
  dc.pcm_write_cycles = 60;
  dc.pcm_write_gap_cycles = 9;
  dc.fast_forward = false;
  dc.self_profile = true;
  dc.telemetry_interval_cycles = 64;
  dc.flight_recorder_depth = 32;
  dc.checkpoint_interval_cycles = 1234;
  dc.chaos_invariants = 512;
  return dc;
}

/// model_data must stay on while DRAM faults or scrubbing are configured,
/// so its off-default value needs a config of its own.
DeviceConfig data_off() {
  DeviceConfig dc;
  dc.model_data = false;
  return dc;
}

/// The configs below together move every field off its default.
std::vector<DeviceConfig> off_default_configs() {
  return {all_off_default(), data_off()};
}

TEST(ConfigFields, EveryFieldIsOffItsDefaultInSomeValidConfig) {
  const DeviceConfig defaults;
  for (const DeviceConfig& dc : off_default_configs()) {
    std::string diag;
    ASSERT_EQ(dc.validate(&diag), Status::Ok) << diag;
  }
  for (const ConfigField& f : kConfigFields) {
    bool moved = false;
    for (const DeviceConfig& dc : off_default_configs()) {
      moved = moved || f.get(dc) != f.get(defaults);
    }
    EXPECT_TRUE(moved) << f.key << " keeps its default in every config";
  }
}

TEST(ConfigFields, ConfigFileRoundTripsEveryField) {
  for (const DeviceConfig& dc : off_default_configs()) {
    SimConfig original;
    original.num_devices = 2;
    original.device = dc;
    std::ostringstream os;
    write_config(os, original);
    const ConfigParseResult r = parse_config_string(os.str());
    ASSERT_TRUE(r.ok) << r.error << "\n" << os.str();
    EXPECT_EQ(r.config.num_devices, 2u);
    EXPECT_EQ(r.config.device.derived_capacity(), dc.derived_capacity());
    EXPECT_EQ(r.config.device.vault_backends, dc.vault_backends);
    for (const ConfigField& f : kConfigFields) {
      if (f.keyed()) EXPECT_EQ(f.get(r.config.device), f.get(dc)) << f.key;
    }
  }
}

TEST(ConfigFields, CheckpointCarriesDeviceStateAndKeepsLiveKnobs) {
  for (const DeviceConfig& dc : off_default_configs()) {
    Simulator saved;
    std::string diag;
    ASSERT_EQ(saved.init_simple(dc, &diag), Status::Ok) << diag;
    std::stringstream bytes;
    ASSERT_EQ(saved.save_checkpoint(bytes), Status::Ok);

    // The restoring simulator's knobs are the defaults; a checkpoint must
    // not replace them with the saving run's.
    const DeviceConfig live;
    Simulator restored;
    ASSERT_EQ(restored.preset_execution_knobs(live), Status::Ok);
    ASSERT_EQ(restored.restore_checkpoint(bytes), Status::Ok);
    const DeviceConfig& got = restored.config().device;
    EXPECT_EQ(got.vault_backends, dc.vault_backends);
    for (const ConfigField& f : kConfigFields) {
      const DeviceConfig& want = f.checkpointed() ? dc : live;
      EXPECT_EQ(f.get(got), f.get(want)) << f.key;
    }
  }
}

/// The text of the report's `config` object.
std::string config_object(const std::string& report) {
  const std::string open = "\"config\":{";
  const usize begin = report.find(open);
  if (begin == std::string::npos) return "";
  usize depth = 0;
  for (usize i = begin + open.size() - 1; i < report.size(); ++i) {
    if (report[i] == '{') ++depth;
    if (report[i] == '}' && --depth == 0) {
      return report.substr(begin, i + 1 - begin);
    }
  }
  return "";
}

TEST(ConfigFields, JsonReportEchoesEveryKeyOnceWithItsValue) {
  for (const DeviceConfig& dc : off_default_configs()) {
    Simulator sim;
    std::string diag;
    ASSERT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;
    std::ostringstream os;
    write_stats_json(os, sim);
    const std::string config = config_object(os.str());
    ASSERT_FALSE(config.empty()) << os.str();
    for (const ConfigField& f : kConfigFields) {
      if (!f.keyed()) continue;
      const std::string key = "\"" + std::string(f.key) + "\":";
      const u64 word = f.get(dc);
      std::string value = std::to_string(word);
      if (f.kind == FieldKind::Flag) value = word != 0 ? "true" : "false";
      if (f.kind == FieldKind::Enum) {
        value = "\"" + std::string(f.name(word)) + "\"";
      }
      const usize at = config.find(key);
      ASSERT_NE(at, std::string::npos) << f.key << " missing";
      EXPECT_EQ(config.find(key, at + 1), std::string::npos)
          << f.key << " echoed twice";
      const usize end = at + key.size() + value.size();
      EXPECT_EQ(config.substr(at + key.size(), value.size()), value)
          << f.key;
      ASSERT_LT(end, config.size()) << f.key;
      EXPECT_TRUE(config[end] == ',' || config[end] == '}') << f.key;
    }
  }
}

}  // namespace
}  // namespace hmcsim
