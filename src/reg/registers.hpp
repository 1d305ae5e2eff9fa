// Device configuration/status register file (paper §IV.D).
//
// The HMC specification groups internal registers into three classes:
// read-write (RW), read-only (RO) and self-clearing-after-write (RWS).
// Physical register indices are neither linear nor zero-based (they encode
// a block address, e.g. link configuration lives at 0x24xxxx); HMC-Sim
// translates them to a dense linear space for storage efficiency via "a
// series of macros" — here, constexpr lookup over the register table.
//
// Registers are accessible two ways:
//   * in-band, via MODE_READ / MODE_WRITE packets that route like any other
//     request (and consume link bandwidth);
//   * side-band, via the JTAG / I2C interface, outside the clock domains.
// Both paths resolve to RegisterFile::read / write below.
#pragma once

#include <array>
#include <optional>
#include <string_view>

#include "common/status.hpp"
#include "common/types.hpp"

namespace hmcsim {

enum class RegClass : u8 {
  RW,   ///< read-write
  RO,   ///< read-only (host writes are rejected)
  RWS,  ///< write-set; the device self-clears it at the next clock edge
};

/// Symbolic names for the architected registers.  The values are *linear*
/// indices into the register file's storage.
enum class Reg : u32 {
  // Error detect registers, one per link group.
  Edr0 = 0, Edr1, Edr2, Edr3,
  // Global error status.
  Err,
  // Global configuration.
  Gc,
  // Per-link configuration.
  Lc0, Lc1, Lc2, Lc3, Lc4, Lc5, Lc6, Lc7,
  // Per-link run-length limit.
  Lrll0, Lrll1, Lrll2, Lrll3, Lrll4, Lrll5, Lrll6, Lrll7,
  // Global link retry.
  Grl,
  // Per-link retry.
  Lr0, Lr1, Lr2, Lr3, Lr4, Lr5, Lr6, Lr7,
  // Per-link input buffer token counts.
  Ibtc0, Ibtc1, Ibtc2, Ibtc3, Ibtc4, Ibtc5, Ibtc6, Ibtc7,
  // Address configuration (selects the address map mode).
  Ac,
  // Vault control.
  Vcr,
  // Feature register (capacity / vault / bank geometry; read-only).
  Feat,
  // Revision and vendor id (read-only).
  Rvid,
  // RAS error-log block (0x2Exxxx; read-only, live):
  // corrected-SBE count (demand | scrub<<32).
  RasSbe,
  // uncorrectable-DBE count (demand | scrub<<32).
  RasDbe,
  // scrub progress: cursor-page[31:0] | completed-passes[63:32].
  RasScrub,
  // address of the most recent error response.
  RasLastAddr,
  // ERRSTAT of the most recent error response.
  RasLastStat,
  // failed-vault bitmask (static + dynamic), remaps in the high word.
  RasVaultFail,
  // Link retry protocol (live): replays[31:0] | abort-entries[47:32] |
  // dead-link bitmask[55:48] (zero unless link_protocol is on).
  RasLinkRetry,
  // Link token flow control (live): stalls[31:0] | min-tokens-now[47:32].
  RasLinkToken,

  Count,
};

inline constexpr usize kRegCount = static_cast<usize>(Reg::Count);

/// Static description of one register.
struct RegisterDef {
  Reg linear;           ///< dense index
  u32 phys;             ///< architected (non-linear) device index
  RegClass cls;
  std::string_view name;
  u64 reset_value;
};

/// The architected register table.  Physical indices follow the HMC 1.0
/// block layout: 0x2Bxxxx error block, 0x28xxxx global config, 0x24xxxx +
/// link*0x10000 link blocks, 0x2Cxxxx addressing/vault block, 0x2Fxxxx
/// identification block.
[[nodiscard]] const std::array<RegisterDef, kRegCount>& register_table();

/// Translate an architected physical index to the linear index.
/// Returns nullopt for indices that do not exist on any device.
[[nodiscard]] std::optional<Reg> reg_from_phys(u32 phys_index);

/// Translate a linear index back to the architected physical index.
[[nodiscard]] u32 phys_from_reg(Reg r);

[[nodiscard]] std::string_view to_string(Reg r);

/// Storage plus access-class enforcement for one device's registers.
class RegisterFile {
 public:
  /// `links` controls which per-link registers exist (4 or 8).
  explicit RegisterFile(u32 links = 4);

  /// Reset every register to its architected reset value.
  void reset();

  /// Read by linear index.  RO/RW/RWS are all readable.
  [[nodiscard]] Status read(Reg r, u64& value) const;

  /// Write by linear index.  RO writes are rejected; RWS writes land and
  /// are flagged for self-clear at the next clock edge.
  [[nodiscard]] Status write(Reg r, u64 value);

  /// Read/write by architected physical index (the MODE_READ/MODE_WRITE and
  /// JTAG paths carry physical indices on the wire).
  [[nodiscard]] Status read_phys(u32 phys_index, u64& value) const;
  [[nodiscard]] Status write_phys(u32 phys_index, u64 value);

  /// Called by the device at sub-cycle stage 6: clears any RWS register
  /// written during the elapsed cycle.  Free when none was.
  void clock_edge() {
    if (pending_count_ != 0) clear_pending();
  }

  /// True when any RWS register awaits its self-clearing edge — i.e. the
  /// next clock_edge() is not a no-op.  The idle-cycle fast-forward engine
  /// refuses to arm until this drains (it clears within one slow cycle).
  [[nodiscard]] bool any_pending_self_clear() const {
    return pending_count_ != 0;
  }

  [[nodiscard]] u32 links() const { return links_; }

  /// True when the register exists for this device's link count.
  [[nodiscard]] bool present(Reg r) const;

  /// Raw state capture for checkpointing: every register value plus the
  /// pending RWS self-clear flags, bypassing access-class enforcement.
  struct Snapshot {
    std::array<u64, kRegCount> values{};
    std::array<bool, kRegCount> pending_self_clear{};
  };
  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{values_, pending_self_clear_};
  }
  void restore(const Snapshot& s);

 private:
  /// clock_edge()'s work: zero every pending RWS register.
  void clear_pending();

  u32 links_;
  std::array<u64, kRegCount> values_{};
  std::array<bool, kRegCount> pending_self_clear_{};
  /// Number of set pending_self_clear_ flags, kept exact by every writer.
  u32 pending_count_{0};
};

}  // namespace hmcsim
