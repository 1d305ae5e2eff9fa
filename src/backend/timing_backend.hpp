// Pluggable vault bank-timing backends (docs/BACKENDS.md).
//
// The clock engine owns everything around the banks — queues, crossbar
// arbitration, refresh scheduling, vault ordering, bank occupancy, RAS —
// and delegates one question to the backend: how long does a bank stay
// occupied after a command, and may a free bank take this class of
// command now.  The seam is deliberately narrow so memory models compose
// instead of fork (Ramulator-style implementable interfaces):
//
//   gate()     may (free bank, access class) issue at cycle `now`?
//   issue()    commit the access: update the bank timing arrays and any
//              backend-private state, attribute stats
//   refresh()  take every bank offline for the refresh window
//   reset()    return to power-on state
//   serialize()/restore()  checkpoint the backend-private state (the
//              shared bank arrays are serialized by the container)
//
// Contract highlights (the backend-parity suite enforces these):
//   * The shared per-bank arrays `VaultState::bank_busy_until` and
//     `VaultState::open_row` remain the single source of truth for bank
//     occupancy: the watchdog diagnostics, the conflict scanner, tools
//     (--wedge-vaults) and tests read — and sometimes write — them
//     directly.  A backend must keep them current on issue().
//   * The engine tests `bank_busy_until[bank] <= now` itself and asks
//     gate() only about a free bank at the head of its bank's queue, so a
//     backend never re-checks occupancy, and an external write to the
//     arrays (a wedged bank stays wedged) holds without its help.
//   * The clock engine is serial, so backends need no locking, but they
//     must be deterministic: identical call sequences produce identical
//     state for either fast_forward setting.
//   * Timing decisions compare against the absolute cycle `now`; a
//     backend never mutates state merely because time passed (required
//     for idle-cycle fast-forward).
#pragma once

#include <memory>

#include "common/types.hpp"
#include "core/config.hpp"

namespace hmcsim {

namespace io {
class WordReader;
class WordWriter;
}  // namespace io

struct VaultState;
struct DeviceStats;

/// Coarse access classification the timing models key on.  Atomics and
/// custom (CMC) commands are read-modify-writes.
enum class AccessClass : u8 { Read, Write, Rmw };

/// Whether a free bank may accept a command this cycle.
enum class BankGate : u8 {
  Ready,      ///< the command may issue now
  Throttled,  ///< a backend-wide limit gates this class
};

class VaultTimingBackend {
 public:
  virtual ~VaultTimingBackend() = default;

  virtual TimingBackend kind() const = 0;

  /// Power-on: clear backend-private state.  The container resets the
  /// shared bank arrays itself.
  virtual void reset() = 0;

  /// May (bank, access) issue at cycle `now`?  Asked only when
  /// `vault.bank_busy_until[bank] <= now`.  The default admits every class.
  virtual BankGate gate(const VaultState& vault, u32 bank, AccessClass access,
                        Cycle now) const;

  /// Commit the access at cycle `now`: set the bank's busy window, manage
  /// the row buffer, update backend-private state, attribute stats
  /// (row_hits / row_misses / backend-specific counters).
  virtual void issue(VaultState& vault, u32 bank, u64 row, AccessClass access,
                     Cycle now, DeviceStats& stats) = 0;

  /// Refresh participation: every bank goes offline until at least
  /// now + busy_cycles and all open rows precharge.  The default
  /// implementation performs exactly that on the shared arrays.
  virtual void refresh(VaultState& vault, Cycle now, u32 busy_cycles);

  /// Checkpoint the backend-private state through the word codec
  /// (io/word_codec.hpp; the container frames it with kind + length +
  /// CRC).  The default is stateless: writes nothing, restores only a
  /// zero-length blob.
  virtual void serialize(io::WordWriter& ar) const;
  /// Restore from a `len`-byte blob; false on malformed contents.
  virtual bool restore(io::WordReader& ar, u64 len);
};

/// Construct the backend configured for `vault` (honoring per-vault
/// overrides).
std::unique_ptr<VaultTimingBackend> make_timing_backend(
    const DeviceConfig& config, u32 vault);

}  // namespace hmcsim
