#include "core/device.hpp"

#include "core/link_layer.hpp"

namespace hmcsim {
namespace {

/// Seed for one vault's DRAM fault generator: decorrelated from the
/// device-wide link-error generator and from every other vault.
SplitMix64 vault_rng(u64 fault_seed, u32 dev, u32 vault) {
  return SplitMix64(fault_seed + dev * 0x9e3779b97f4a7c15ull +
                    (u64{vault} + 1) * 0xbf58476d1ce4e5b9ull);
}

}  // namespace

Device::Device(u32 cube_id, const DeviceConfig& config)
    : regs(config.num_links),
      store(config.derived_capacity()),
      id_(cube_id),
      config_(config),
      map_(config.make_address_map()) {
  links.reserve(config.num_links);
  for (u32 l = 0; l < config.num_links; ++l) {
    LinkState link;
    link.rqst = BoundedQueue<RequestEntry>(config.xbar_depth);
    link.rsp = BoundedQueue<ResponseEntry>(config.xbar_depth);
    LinkLayer::reset(config, link.proto);
    links.push_back(std::move(link));
  }
  vaults.reserve(config.num_vaults());
  for (u32 v = 0; v < config.num_vaults(); ++v) {
    VaultState vault;
    vault.rqst = BoundedQueue<RequestEntry>(config.vault_depth);
    vault.rsp = BoundedQueue<ResponseEntry>(config.vault_depth);
    vault.bank_busy_until.assign(config.banks_per_vault, 0);
    vault.open_row.assign(config.banks_per_vault, kNoOpenRow);
    vault.dram_rng = vault_rng(config.fault_seed, cube_id, v);
    // The backend references the device's own config copy (config_), whose
    // address is stable for the device's lifetime.
    vault.timing = make_timing_backend(config_, v);
    vaults.push_back(std::move(vault));
  }
  mode_rsp = BoundedQueue<ResponseEntry>(config.xbar_depth);
  mode_rsp.count_pushes_into(&queue_pushes);
  for (LinkState& link : links) {
    link.rqst.count_pushes_into(&queue_pushes);
    link.rsp.count_pushes_into(&queue_pushes);
  }
  for (VaultState& vault : vaults) {
    vault.rqst.count_pushes_into(&queue_pushes);
    vault.rsp.count_pushes_into(&queue_pushes);
  }
  fault_rng = SplitMix64(config.fault_seed + cube_id * 0x9e3779b97f4a7c15ull);
  ras.failed_vaults = config.failed_vault_mask;
  ras.vault_uncorrectable.assign(config.num_vaults(), 0);
}

void Device::reset(bool clear_memory) {
  for (auto& link : links) {
    link.rqst.clear();
    link.rsp.clear();
    link.rqst.reset_stats();
    link.rsp.reset_stats();
    link.rqst_flits_forwarded = 0;
    link.rsp_flits_forwarded = 0;
    link.rqst_budget = 0;
    link.rsp_budget = 0;
    LinkLayer::reset(config_, link.proto);
  }
  u32 v = 0;
  for (auto& vault : vaults) {
    vault.rqst.clear();
    vault.rsp.clear();
    vault.rqst.reset_stats();
    vault.rsp.reset_stats();
    std::fill(vault.bank_busy_until.begin(), vault.bank_busy_until.end(), 0);
    std::fill(vault.open_row.begin(), vault.open_row.end(), kNoOpenRow);
    vault.dram_rng = vault_rng(config_.fault_seed, id_, v++);
    vault.timing->reset();
  }
  mode_rsp.clear();
  regs.reset();
  if (clear_memory) store.clear();
  stats = DeviceStats{};
  fault_rng = SplitMix64(config_.fault_seed + id_ * 0x9e3779b97f4a7c15ull);
  ras = RasState{};
  ras.failed_vaults = config_.failed_vault_mask;
  ras.vault_uncorrectable.assign(config_.num_vaults(), 0);
}

}  // namespace hmcsim
