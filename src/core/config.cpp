#include "core/config.hpp"

#include <sstream>

#include "common/bitops.hpp"

namespace hmcsim {

const char* to_string(TimingBackend backend) {
  switch (backend) {
    case TimingBackend::HmcDram: return "hmc_dram";
    case TimingBackend::GenericDdr: return "generic_ddr";
    case TimingBackend::PcmLike: return "pcm_like";
  }
  return "hmc_dram";
}

bool timing_backend_from_string(std::string_view name, TimingBackend* out) {
  if (name == "hmc_dram") *out = TimingBackend::HmcDram;
  else if (name == "generic_ddr") *out = TimingBackend::GenericDdr;
  else if (name == "pcm_like") *out = TimingBackend::PcmLike;
  else return false;
  return true;
}

bool DeviceConfig::uses_backend(TimingBackend backend) const {
  if (timing_backend == backend) return true;
  for (const auto& [vault, override] : vault_backends) {
    (void)vault;
    if (override == backend) return true;
  }
  return false;
}

TimingBackend DeviceConfig::backend_for_vault(u32 vault) const {
  for (const auto& [index, override] : vault_backends) {
    if (index == vault) return override;
  }
  return timing_backend;
}

AddressMap DeviceConfig::make_address_map() const {
  switch (map_mode) {
    case AddrMapMode::LowInterleave:
      return AddressMap::low_interleave(geometry(), max_block_bytes);
    case AddrMapMode::BankFirst:
      return AddressMap::bank_first(geometry(), max_block_bytes);
    case AddrMapMode::Linear:
      return AddressMap::linear(geometry(), max_block_bytes);
  }
  return AddressMap{};
}

Status DeviceConfig::validate(std::string* diagnostic) const {
  std::ostringstream os;
  const auto fail = [&](Status s) {
    if (diagnostic) *diagnostic = os.str();
    return s;
  };

  if (num_links != spec::kLinks4 && num_links != spec::kLinks8) {
    os << "num_links must be 4 or 8, got " << num_links;
    return fail(Status::InvalidConfig);
  }
  if (banks_per_vault != spec::kBanks8 && banks_per_vault != spec::kBanks16) {
    os << "banks_per_vault must be 8 or 16, got " << banks_per_vault;
    return fail(Status::InvalidConfig);
  }
  if (!is_pow2(drams_per_bank) || drams_per_bank > 32) {
    os << "drams_per_bank must be a power of two <= 32, got "
       << drams_per_bank;
    return fail(Status::InvalidConfig);
  }
  if (xbar_depth == 0 || vault_depth == 0) {
    os << "queue depths must be at least one slot";
    return fail(Status::InvalidConfig);
  }
  if (max_block_bytes != 32 && max_block_bytes != 64 &&
      max_block_bytes != 128 && max_block_bytes != 256) {
    os << "max_block_bytes must be 32/64/128/256, got " << max_block_bytes;
    return fail(Status::InvalidConfig);
  }
  if (capacity_bytes != 0 && capacity_bytes != derived_capacity()) {
    os << "capacity " << capacity_bytes << " does not match geometry ("
       << num_vaults() << " vaults x " << banks_per_vault << " banks x "
       << spec::kBankBytes << " B = " << derived_capacity() << " B)";
    return fail(Status::InvalidConfig);
  }
  if (xbar_flits_per_cycle == 0) {
    os << "xbar_flits_per_cycle must be nonzero";
    return fail(Status::InvalidConfig);
  }
  if (bank_busy_cycles == 0) {
    os << "bank_busy_cycles must be nonzero";
    return fail(Status::InvalidConfig);
  }
  for (usize i = 0; i < vault_backends.size(); ++i) {
    const u32 index = vault_backends[i].first;
    if (index >= num_vaults()) {
      os << "vault_backend index " << index << " is beyond the device's "
         << num_vaults() << " vaults";
      return fail(Status::InvalidConfig);
    }
    for (usize j = 0; j < i; ++j) {
      if (vault_backends[j].first == index) {
        os << "vault_backend index " << index << " is listed twice";
        return fail(Status::InvalidConfig);
      }
    }
  }
  if (uses_backend(TimingBackend::GenericDdr) && ddr_tcl == 0) {
    os << "generic_ddr requires ddr_tcl >= 1 (a command must occupy the "
          "bank for at least one cycle)";
    return fail(Status::InvalidConfig);
  }
  if (uses_backend(TimingBackend::PcmLike)) {
    if (pcm_read_cycles == 0) {
      os << "pcm_like requires pcm_read_cycles >= 1";
      return fail(Status::InvalidConfig);
    }
    if (pcm_write_cycles < pcm_read_cycles) {
      os << "pcm_like requires pcm_write_cycles (" << pcm_write_cycles
         << ") >= pcm_read_cycles (" << pcm_read_cycles
         << "): PCM writes are never faster than reads";
      return fail(Status::InvalidConfig);
    }
  }
  if (!model_data && (dram_sbe_rate_ppm != 0 || dram_dbe_rate_ppm != 0 ||
                      scrub_interval_cycles != 0)) {
    os << "DRAM fault injection and scrubbing require model_data=true "
          "(faults are real bit flips in the backing store)";
    return fail(Status::InvalidConfig);
  }
  if (scrub_interval_cycles != 0 &&
      (scrub_window_bytes == 0 || scrub_window_bytes % 16 != 0)) {
    os << "scrub_window_bytes must be a nonzero multiple of 16, got "
       << scrub_window_bytes;
    return fail(Status::InvalidConfig);
  }
  if (num_vaults() < 64 && (failed_vault_mask >> num_vaults()) != 0) {
    os << "failed_vault_mask 0x" << std::hex << failed_vault_mask << std::dec
       << " marks vaults beyond the device's " << num_vaults();
    return fail(Status::InvalidConfig);
  }
  if (link_protocol) {
    if (link_retry_limit == 0 || link_retry_limit > 256) {
      os << "link_protocol requires link_retry_limit in [1,256] (the spec "
            "retry machine always replays), got " << link_retry_limit;
      return fail(Status::InvalidConfig);
    }
    if (link_retry_buffer_flits < spec::kMaxPacketFlits ||
        link_retry_buffer_flits > 256) {
      os << "link_retry_buffer_flits must hold one maximal packet and fit "
            "the 8-bit FRP: [" << spec::kMaxPacketFlits << ",256], got "
         << link_retry_buffer_flits;
      return fail(Status::InvalidConfig);
    }
    if (link_tokens != 0 && link_tokens < spec::kMaxPacketFlits) {
      os << "link_tokens must be 0 (auto) or at least one maximal packet ("
         << spec::kMaxPacketFlits << " FLITs), got " << link_tokens;
      return fail(Status::InvalidConfig);
    }
    if (link_retry_latency == 0 || link_retry_latency > 4096) {
      os << "link_retry_latency must be in [1,4096] cycles, got "
         << link_retry_latency;
      return fail(Status::InvalidConfig);
    }
    // One error-abort exchange makes no visible progress for up to
    // link_retry_latency cycles (plus a stuck-retraining window delaying
    // the replay); a tighter watchdog would misread recovery as deadlock.
    if (watchdog_cycles != 0 &&
        watchdog_cycles <=
            link_retry_latency + link_stuck_window_cycles) {
      os << "watchdog_cycles (" << watchdog_cycles
         << ") must exceed link_retry_latency + link_stuck_window_cycles ("
         << link_retry_latency + link_stuck_window_cycles
         << ") or the watchdog misreads link recovery as deadlock";
      return fail(Status::InvalidConfig);
    }
  } else if (link_tokens != 0 || link_stuck_window_cycles != 0 ||
             link_error_burst_len > 1 || link_fail_threshold != 0) {
    os << "link_tokens / link_error_burst_len / link_stuck_* / "
          "link_fail_threshold require link_protocol = true";
    return fail(Status::InvalidConfig);
  }
  if (link_error_burst_len == 0 || link_error_burst_len > 64) {
    os << "link_error_burst_len must be in [1,64], got "
       << link_error_burst_len;
    return fail(Status::InvalidConfig);
  }
  if (link_stuck_window_cycles != 0 &&
      (link_stuck_interval_cycles == 0 ||
       link_stuck_window_cycles >= link_stuck_interval_cycles)) {
    os << "link_stuck_window_cycles (" << link_stuck_window_cycles
       << ") must be smaller than a nonzero link_stuck_interval_cycles ("
       << link_stuck_interval_cycles << ")";
    return fail(Status::InvalidConfig);
  }
  if (link_stuck_interval_cycles != 0 && link_stuck_window_cycles == 0) {
    os << "link_stuck_interval_cycles needs a nonzero "
          "link_stuck_window_cycles";
    return fail(Status::InvalidConfig);
  }
  const AddressMap map = make_address_map();
  if (!map.valid()) {
    os << "address map construction failed: " << map.error();
    return fail(Status::InvalidConfig);
  }
  return Status::Ok;
}

Status SimConfig::validate(std::string* diagnostic) const {
  if (num_devices == 0 || num_devices > spec::kMaxDevices) {
    if (diagnostic) {
      std::ostringstream os;
      os << "num_devices must be in [1," << spec::kMaxDevices
         << "] (the 3-bit CUB field must leave room for host ids), got "
         << num_devices;
      *diagnostic = os.str();
    }
    return Status::InvalidConfig;
  }
  return device.validate(diagnostic);
}

DeviceConfig table1_config_4link_8bank() {
  DeviceConfig c;
  c.num_links = 4;
  c.banks_per_vault = 8;
  c.xbar_depth = 128;
  c.vault_depth = 64;
  c.capacity_bytes = u64{2} * 1024 * 1024 * 1024;
  return c;
}

DeviceConfig table1_config_4link_16bank() {
  DeviceConfig c = table1_config_4link_8bank();
  c.banks_per_vault = 16;
  c.capacity_bytes = u64{4} * 1024 * 1024 * 1024;
  return c;
}

DeviceConfig table1_config_8link_8bank() {
  DeviceConfig c = table1_config_4link_8bank();
  c.num_links = 8;
  c.capacity_bytes = u64{4} * 1024 * 1024 * 1024;
  return c;
}

DeviceConfig table1_config_8link_16bank() {
  DeviceConfig c = table1_config_4link_8bank();
  c.num_links = 8;
  c.banks_per_vault = 16;
  c.capacity_bytes = u64{8} * 1024 * 1024 * 1024;
  return c;
}

}  // namespace hmcsim
