// Chaos plans: deterministic, scriptable fault campaigns (docs/CHAOS.md).
//
// A plan is a small line-oriented file compiled into a flat, cycle-sorted
// event list.  Each event arms, retargets, or disarms one of the existing
// fault injectors (link errors, dead links, DRAM fault rates, vault
// failure, vault wedges, host-timeout squeeze) at a precise cycle; the
// clock loop applies events exactly at their cycle on both the staged and
// the fast-forward path, so a plan replays bit-identically either way.
//
// Grammar (one directive per line, `#` comments):
//
//   at <cycle> <action> [args...]
//   at <cycle> restore <action>            # reset a rate to its baseline
//   every <period> [from <cycle>] until <cycle> <action> [args...]
//   ramp <start> <end> <steps> <action> <from> <to>
//   storm <start> <end>                    # block: actions applied at
//     <action> [args...]                   # <start>, undone at <end>
//     ...
//   end
//   quiet <start> <end>                    # zero all fault rates, restore
//
// Parsing follows the config/trace loader discipline: every rejection is a
// typed "<line>: <message>" error, lines longer than 64 KiB are refused,
// and no input can crash the process (tests/chaos/test_plan_fuzz.cpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hmcsim {

enum class ChaosAction : u8 {
  LinkErrorPpm,    ///< a = transient link error odds per packet, ppm
  LinkBurst,       ///< a = consecutive packets hit per injected error
  LinkRetrain,     ///< a = link, b = forced retraining window, cycles
  KillLink,        ///< a = link (dead-link escalation: LINK_FAILED replies)
  ReviveLink,      ///< a = link (clear dead + the retry-exhaustion count)
  DramSbePpm,      ///< a = single-bit DRAM fault odds per access, ppm
  DramDbePpm,      ///< a = double-bit DRAM fault odds per access, ppm
  VaultFail,       ///< a = vault (mark failed, as if degraded out)
  VaultUnfail,     ///< a = vault (clear failed + the uncorrectable count)
  Wedge,           ///< a = vault (every bank busy forever)
  Unwedge,         ///< a = vault (release all banks)
  HostTimeout,     ///< a = host response timeout, cycles (0 = off)
  BreakInvariant,  ///< a = token-count corruption (test-only checker hook)
};

/// One compiled plan entry.  `restore` marks the closing edge of a
/// storm/quiet block (or an explicit `restore` directive): re-arm the
/// injector with the value the configuration started with.
struct ChaosEvent {
  Cycle cycle{0};
  ChaosAction action{ChaosAction::LinkErrorPpm};
  u64 a{0};
  u64 b{0};
  bool restore{false};
  /// Source line in the plan file (diagnostics; excluded from the CRC).
  u32 line{0};
};

/// A compiled plan: events stably sorted by cycle, so same-cycle events
/// apply in file order.
struct ChaosPlan {
  std::vector<ChaosEvent> events;
  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// A plan may expand (`every`, `ramp`, `storm`) but never past this.
inline constexpr usize kMaxChaosEvents = 65536;

struct ChaosPlanParseResult {
  bool ok{false};
  ChaosPlan plan;
  /// "<line>: <message>" on failure, mirroring ConfigParseResult.
  std::string error;
};

[[nodiscard]] ChaosPlanParseResult parse_chaos_plan(std::istream& in);
[[nodiscard]] ChaosPlanParseResult parse_chaos_plan_string(
    const std::string& text);

/// Emit `plan` as flat `at` directives; parse_chaos_plan(write_chaos_plan(p))
/// reproduces the same event list (the shrinker's reproducer format).
void write_chaos_plan(std::ostream& os, const ChaosPlan& plan);

/// Stable identity of the compiled event list, used to verify that a
/// checkpointed mid-campaign cursor is resumed against the same plan.
[[nodiscard]] u64 chaos_plan_crc(const ChaosPlan& plan);

[[nodiscard]] const char* to_string(ChaosAction action);
[[nodiscard]] bool chaos_action_from_string(const std::string& name,
                                            ChaosAction* out);
/// Actions whose first argument is a rate/magnitude (shrinkable, rampable,
/// baseline-restorable) rather than a structural index.
[[nodiscard]] bool chaos_action_has_magnitude(ChaosAction action);
/// Number of arguments the action takes in plan text.
[[nodiscard]] u32 chaos_action_arity(ChaosAction action);

}  // namespace hmcsim
