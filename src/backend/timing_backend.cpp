#include "backend/timing_backend.hpp"

#include <algorithm>

#include "core/device.hpp"
#include "core/stats.hpp"
#include "io/word_codec.hpp"

namespace hmcsim {

namespace {

/// The paper's DRAM model, verbatim: under ClosedPage every access
/// occupies the bank for bank_busy_cycles; under OpenPage a row-buffer hit
/// costs row_hit_cycles and a miss (precharge + activate) costs
/// row_miss_cycles and leaves the new row open.  Stateless beyond the
/// shared arrays — bit-identical to the pre-refactor inline code.
class HmcDramBackend final : public VaultTimingBackend {
 public:
  explicit HmcDramBackend(const DeviceConfig& config) : config_(&config) {}

  TimingBackend kind() const override { return TimingBackend::HmcDram; }

  void reset() override {}

  void issue(VaultState& vault, u32 bank, u64 row, AccessClass /*access*/,
             Cycle now, DeviceStats& stats) override {
    if (config_->row_policy == RowPolicy::OpenPage) {
      if (vault.open_row[bank] == row) {
        vault.bank_busy_until[bank] = now + config_->row_hit_cycles;
        ++stats.row_hits;
      } else {
        vault.bank_busy_until[bank] = now + config_->row_miss_cycles;
        vault.open_row[bank] = row;
        ++stats.row_misses;
      }
    } else {
      vault.bank_busy_until[bank] = now + config_->bank_busy_cycles;
    }
  }

 private:
  const DeviceConfig* config_;
};

/// Parameterized DDR-style timing: a row-buffer hit costs tCL; a miss (or
/// any access under ClosedPage, where every row closes immediately) costs
/// max(tRCD + tCL, tRAS) + tRP — activate-to-read plus the column latency,
/// floored by the row-active minimum, plus the precharge.  With
/// tRCD = tRP = tRAS = 0 this degenerates to a flat tCL busy window,
/// which is how the hmc_dram ClosedPage equivalence mapping works.
class GenericDdrBackend final : public VaultTimingBackend {
 public:
  explicit GenericDdrBackend(const DeviceConfig& config) : config_(&config) {}

  TimingBackend kind() const override { return TimingBackend::GenericDdr; }

  void reset() override {}

  void issue(VaultState& vault, u32 bank, u64 row, AccessClass /*access*/,
             Cycle now, DeviceStats& stats) override {
    const Cycle miss_cost =
        std::max<Cycle>(Cycle{config_->ddr_trcd} + config_->ddr_tcl,
                        config_->ddr_tras) +
        config_->ddr_trp;
    if (config_->row_policy == RowPolicy::OpenPage) {
      if (vault.open_row[bank] == row) {
        vault.bank_busy_until[bank] = now + config_->ddr_tcl;
        ++stats.row_hits;
      } else {
        vault.bank_busy_until[bank] = now + miss_cost;
        vault.open_row[bank] = row;
        ++stats.row_misses;
      }
    } else {
      vault.bank_busy_until[bank] = now + miss_cost;
    }
  }

 private:
  const DeviceConfig* config_;
};

/// Phase-change-memory-style timing (HybridSim's PCMSim shape): reads and
/// writes occupy the bank asymmetrically (writes are several times
/// slower), and a vault-wide write gap throttles sustained write
/// bandwidth: after any write issues, further writes to the same vault
/// wait until now + pcm_write_gap_cycles.  The throttle is a gate, not a
/// bank occupancy — reads flow past a throttled write — and gated issue
/// attempts are counted in pcm_write_throttle_stalls.  Row buffers are
/// not modeled (PCM reads are non-destructive); open_row stays at
/// kNoOpenRow.
class PcmLikeBackend final : public VaultTimingBackend {
 public:
  explicit PcmLikeBackend(const DeviceConfig& config) : config_(&config) {}

  TimingBackend kind() const override { return TimingBackend::PcmLike; }

  void reset() override { write_ok_ = 0; }

  BankGate gate(const VaultState& /*vault*/, u32 /*bank*/, AccessClass access,
                Cycle now) const override {
    return access != AccessClass::Read && write_ok_ > now ? BankGate::Throttled
                                                          : BankGate::Ready;
  }

  void issue(VaultState& vault, u32 bank, u64 /*row*/, AccessClass access,
             Cycle now, DeviceStats& /*stats*/) override {
    if (access == AccessClass::Read) {
      vault.bank_busy_until[bank] = now + config_->pcm_read_cycles;
    } else {
      vault.bank_busy_until[bank] = now + config_->pcm_write_cycles;
      if (config_->pcm_write_gap_cycles != 0) {
        write_ok_ = now + config_->pcm_write_gap_cycles;
      }
    }
  }

  void serialize(io::WordWriter& ar) const override { ar(write_ok_); }

  bool restore(io::WordReader& ar, u64 len) override {
    return len == 8 && ar(write_ok_);
  }

 private:
  const DeviceConfig* config_;
  /// Earliest cycle the next write may issue (vault-wide write throttle).
  Cycle write_ok_{0};
};

}  // namespace

BankGate VaultTimingBackend::gate(const VaultState& /*vault*/, u32 /*bank*/,
                                  AccessClass /*access*/, Cycle /*now*/) const {
  return BankGate::Ready;
}

void VaultTimingBackend::refresh(VaultState& vault, Cycle now,
                                 u32 busy_cycles) {
  const Cycle until = now + busy_cycles;
  for (Cycle& busy : vault.bank_busy_until) busy = std::max(busy, until);
  // Refresh precharges every bank: open rows close.
  std::fill(vault.open_row.begin(), vault.open_row.end(), kNoOpenRow);
}

void VaultTimingBackend::serialize(io::WordWriter& /*ar*/) const {}

bool VaultTimingBackend::restore(io::WordReader& /*ar*/, u64 len) {
  return len == 0;
}

std::unique_ptr<VaultTimingBackend> make_timing_backend(
    const DeviceConfig& config, u32 vault) {
  switch (config.backend_for_vault(vault)) {
    case TimingBackend::HmcDram:
      return std::make_unique<HmcDramBackend>(config);
    case TimingBackend::GenericDdr:
      return std::make_unique<GenericDdrBackend>(config);
    case TimingBackend::PcmLike:
      return std::make_unique<PcmLikeBackend>(config);
  }
  return std::make_unique<HmcDramBackend>(config);
}

}  // namespace hmcsim
