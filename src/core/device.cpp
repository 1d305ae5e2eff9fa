#include "core/device.hpp"

#include <algorithm>
#include <bit>

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

void VaultState::charge_bank(const DeviceConfig& cfg, u32 bank, u64 row,
                             bool writes, Cycle now, DeviceStats& stats) {
  // The DRAM models differ only in their costs: under OpenPage a row-buffer
  // hit costs `hit`, and a miss (precharge + activate) costs `miss` and
  // leaves the new row open; under ClosedPage every access costs `closed`.
  Cycle hit = 0;
  Cycle miss = 0;
  Cycle closed = 0;
  switch (timing) {
    case TimingBackend::HmcDram:
      // The paper's DRAM model.
      hit = cfg.row_hit_cycles;
      miss = cfg.row_miss_cycles;
      closed = cfg.bank_busy_cycles;
      break;
    case TimingBackend::GenericDdr:
      // A hit costs tCL; a miss, or any ClosedPage access, costs
      // activate-to-read plus the column latency, floored by the
      // row-active minimum, plus the precharge.
      hit = cfg.ddr_tcl;
      miss = std::max<Cycle>(Cycle{cfg.ddr_trcd} + cfg.ddr_tcl,
                             cfg.ddr_tras) +
             cfg.ddr_trp;
      closed = miss;
      break;
    case TimingBackend::PcmLike:
      // Reads and writes occupy the bank asymmetrically, a write opens the
      // vault's write gap, and no row buffer is modeled (PCM reads are
      // non-destructive), so open_row stays kNoOpenRow.
      if (writes) {
        bank_busy_until[bank] = now + cfg.pcm_write_cycles;
        if (cfg.pcm_write_gap_cycles != 0) {
          write_ok = now + cfg.pcm_write_gap_cycles;
        }
      } else {
        bank_busy_until[bank] = now + cfg.pcm_read_cycles;
      }
      return;
  }
  if (cfg.row_policy != RowPolicy::OpenPage) {
    bank_busy_until[bank] = now + closed;
  } else if (open_row[bank] == row) {
    bank_busy_until[bank] = now + hit;
    ++stats.row_hits;
  } else {
    bank_busy_until[bank] = now + miss;
    open_row[bank] = row;
    ++stats.row_misses;
  }
}

void VaultState::refresh(Cycle now, u32 busy_cycles) {
  const Cycle until = now + busy_cycles;
  for (Cycle& busy : bank_busy_until) busy = std::max(busy, until);
  std::fill(open_row.begin(), open_row.end(), kNoOpenRow);
}

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
    vault.timing = config.backend_for_vault(v);
    vaults.push_back(std::move(vault));
  }
  mode_rsp = BoundedQueue<ResponseEntry>(config.xbar_depth);
  mode_rsp.count_pushes_into(&queue_pushes);
  for (LinkState& link : links) {
    link.rqst.count_pushes_into(&queue_pushes);
    link.rsp.count_pushes_into(&queue_pushes);
  }
  for (u32 v = 0; v < config.num_vaults(); ++v) {
    vaults[v].rqst.count_pushes_into(&queue_pushes, &active_vaults,
                                     u64{1} << v);
    vaults[v].rsp.count_pushes_into(&queue_pushes, &active_vaults,
                                    u64{1} << v);
  }
  fault_rng = SplitMix64(config.fault_seed + cube_id * 0x9e3779b97f4a7c15ull);
  ras.failed_vaults = config.failed_vault_mask;
  ras.vault_uncorrectable.assign(config.num_vaults(), 0);
}

bool Device::vaults_idle() const {
  for (u64 active = active_vaults; active != 0; active &= active - 1) {
    const VaultState& vault = vaults[std::countr_zero(active)];
    if (!vault.rqst.empty() || !vault.rsp.empty()) return false;
  }
  return true;
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
    vault.write_ok = 0;
  }
  mode_rsp.clear();
  active_vaults = 0;
  regs.reset();
  if (clear_memory) store.clear();
  stats = DeviceStats{};
  fault_rng = SplitMix64(config_.fault_seed + id_ * 0x9e3779b97f4a7c15ull);
  ras = RasState{};
  ras.failed_vaults = config_.failed_vault_mask;
  ras.vault_uncorrectable.assign(config_.num_vaults(), 0);
}

}  // namespace hmcsim
