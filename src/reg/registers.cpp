#include "reg/registers.hpp"

#include <algorithm>

namespace hmcsim {
namespace {

constexpr u64 kFeatReset = 0x0000000000000001ull;   // HMC gen1 feature word
constexpr u64 kRvidReset = 0x0000000001002014ull;   // rev 1.0, vendor tag

constexpr std::array<RegisterDef, kRegCount> kTable = {{
    {Reg::Edr0, 0x2b0000u, RegClass::RWS, "EDR0", 0},
    {Reg::Edr1, 0x2b0001u, RegClass::RWS, "EDR1", 0},
    {Reg::Edr2, 0x2b0002u, RegClass::RWS, "EDR2", 0},
    {Reg::Edr3, 0x2b0003u, RegClass::RWS, "EDR3", 0},
    {Reg::Err, 0x2b0004u, RegClass::RO, "ERR", 0},
    {Reg::Gc, 0x280000u, RegClass::RW, "GC", 0},
    {Reg::Lc0, 0x240000u, RegClass::RW, "LC0", 0},
    {Reg::Lc1, 0x250000u, RegClass::RW, "LC1", 0},
    {Reg::Lc2, 0x260000u, RegClass::RW, "LC2", 0},
    {Reg::Lc3, 0x270000u, RegClass::RW, "LC3", 0},
    {Reg::Lc4, 0x240008u, RegClass::RW, "LC4", 0},
    {Reg::Lc5, 0x250008u, RegClass::RW, "LC5", 0},
    {Reg::Lc6, 0x260008u, RegClass::RW, "LC6", 0},
    {Reg::Lc7, 0x270008u, RegClass::RW, "LC7", 0},
    {Reg::Lrll0, 0x240003u, RegClass::RO, "LRLL0", 0},
    {Reg::Lrll1, 0x250003u, RegClass::RO, "LRLL1", 0},
    {Reg::Lrll2, 0x260003u, RegClass::RO, "LRLL2", 0},
    {Reg::Lrll3, 0x270003u, RegClass::RO, "LRLL3", 0},
    {Reg::Lrll4, 0x24000bu, RegClass::RO, "LRLL4", 0},
    {Reg::Lrll5, 0x25000bu, RegClass::RO, "LRLL5", 0},
    {Reg::Lrll6, 0x26000bu, RegClass::RO, "LRLL6", 0},
    {Reg::Lrll7, 0x27000bu, RegClass::RO, "LRLL7", 0},
    {Reg::Grl, 0x2c0000u, RegClass::RW, "GRL", 0},
    {Reg::Lr0, 0x240004u, RegClass::RW, "LR0", 0},
    {Reg::Lr1, 0x250004u, RegClass::RW, "LR1", 0},
    {Reg::Lr2, 0x260004u, RegClass::RW, "LR2", 0},
    {Reg::Lr3, 0x270004u, RegClass::RW, "LR3", 0},
    {Reg::Lr4, 0x24000cu, RegClass::RW, "LR4", 0},
    {Reg::Lr5, 0x25000cu, RegClass::RW, "LR5", 0},
    {Reg::Lr6, 0x26000cu, RegClass::RW, "LR6", 0},
    {Reg::Lr7, 0x27000cu, RegClass::RW, "LR7", 0},
    {Reg::Ibtc0, 0x240005u, RegClass::RW, "IBTC0", 0},
    {Reg::Ibtc1, 0x250005u, RegClass::RW, "IBTC1", 0},
    {Reg::Ibtc2, 0x260005u, RegClass::RW, "IBTC2", 0},
    {Reg::Ibtc3, 0x270005u, RegClass::RW, "IBTC3", 0},
    {Reg::Ibtc4, 0x24000du, RegClass::RW, "IBTC4", 0},
    {Reg::Ibtc5, 0x25000du, RegClass::RW, "IBTC5", 0},
    {Reg::Ibtc6, 0x26000du, RegClass::RW, "IBTC6", 0},
    {Reg::Ibtc7, 0x27000du, RegClass::RW, "IBTC7", 0},
    {Reg::Ac, 0x2c0001u, RegClass::RW, "AC", 0},
    {Reg::Vcr, 0x2c0002u, RegClass::RW, "VCR", 0},
    {Reg::Feat, 0x2f0000u, RegClass::RO, "FEAT", kFeatReset},
    {Reg::Rvid, 0x2f0001u, RegClass::RO, "RVID", kRvidReset},
    {Reg::RasSbe, 0x2e0000u, RegClass::RO, "RAS_SBE", 0},
    {Reg::RasDbe, 0x2e0001u, RegClass::RO, "RAS_DBE", 0},
    {Reg::RasScrub, 0x2e0002u, RegClass::RO, "RAS_SCRUB", 0},
    {Reg::RasLastAddr, 0x2e0003u, RegClass::RO, "RAS_LAST_ADDR", 0},
    {Reg::RasLastStat, 0x2e0004u, RegClass::RO, "RAS_LAST_STAT", 0},
    {Reg::RasVaultFail, 0x2e0005u, RegClass::RO, "RAS_VAULT_FAIL", 0},
    {Reg::RasLinkRetry, 0x2e0006u, RegClass::RO, "RAS_LINK_RETRY", 0},
    {Reg::RasLinkToken, 0x2e0007u, RegClass::RO, "RAS_LINK_TOKEN", 0},
}};

}  // namespace

const std::array<RegisterDef, kRegCount>& register_table() { return kTable; }

std::optional<Reg> reg_from_phys(u32 phys_index) {
  for (const auto& def : kTable) {
    if (def.phys == phys_index) return def.linear;
  }
  return std::nullopt;
}

u32 phys_from_reg(Reg r) {
  return kTable[static_cast<usize>(r)].phys;
}

std::string_view to_string(Reg r) {
  if (r >= Reg::Count) return "INVALID";
  return kTable[static_cast<usize>(r)].name;
}

RegisterFile::RegisterFile(u32 links) : links_(links) { reset(); }

void RegisterFile::reset() {
  for (const auto& def : kTable) {
    values_[static_cast<usize>(def.linear)] = def.reset_value;
  }
  pending_self_clear_.fill(false);
  pending_count_ = 0;
}

bool RegisterFile::present(Reg r) const {
  if (r >= Reg::Count) return false;
  if (links_ >= 8) return true;
  // Per-link registers 4..7 only exist on eight-link parts.
  switch (r) {
    case Reg::Lc4: case Reg::Lc5: case Reg::Lc6: case Reg::Lc7:
    case Reg::Lrll4: case Reg::Lrll5: case Reg::Lrll6: case Reg::Lrll7:
    case Reg::Lr4: case Reg::Lr5: case Reg::Lr6: case Reg::Lr7:
    case Reg::Ibtc4: case Reg::Ibtc5: case Reg::Ibtc6: case Reg::Ibtc7:
      return false;
    default:
      return true;
  }
}

Status RegisterFile::read(Reg r, u64& value) const {
  if (!present(r)) return Status::NoSuchRegister;
  value = values_[static_cast<usize>(r)];
  return Status::Ok;
}

Status RegisterFile::write(Reg r, u64 value) {
  if (!present(r)) return Status::NoSuchRegister;
  const RegisterDef& def = kTable[static_cast<usize>(r)];
  switch (def.cls) {
    case RegClass::RO:
      return Status::ReadOnlyRegister;
    case RegClass::RW:
      values_[static_cast<usize>(r)] = value;
      return Status::Ok;
    case RegClass::RWS: {
      values_[static_cast<usize>(r)] = value;
      bool& pending = pending_self_clear_[static_cast<usize>(r)];
      if (!pending) ++pending_count_;
      pending = true;
      return Status::Ok;
    }
  }
  return Status::Internal;
}

Status RegisterFile::read_phys(u32 phys_index, u64& value) const {
  const auto r = reg_from_phys(phys_index);
  if (!r) return Status::NoSuchRegister;
  return read(*r, value);
}

Status RegisterFile::write_phys(u32 phys_index, u64 value) {
  const auto r = reg_from_phys(phys_index);
  if (!r) return Status::NoSuchRegister;
  return write(*r, value);
}

void RegisterFile::clear_pending() {
  for (usize i = 0; i < kRegCount; ++i) {
    if (pending_self_clear_[i]) {
      values_[i] = 0;
      pending_self_clear_[i] = false;
    }
  }
  pending_count_ = 0;
}

void RegisterFile::restore(const Snapshot& s) {
  values_ = s.values;
  pending_self_clear_ = s.pending_self_clear;
  pending_count_ = static_cast<u32>(std::count(
      pending_self_clear_.begin(), pending_self_clear_.end(), true));
}

}  // namespace hmcsim
