// Chaos-orchestration engine: deterministic fault-campaign playback plus a
// live invariant checker (docs/CHAOS.md).
//
// The engine owns a compiled ChaosPlan and a cursor into it.  The clock
// loop calls apply_due() at the top of every clock() — before the stage
// dispatch AND before the fast-forward dispatch, so an event lands at its
// exact cycle on both paths and the replay is bit-identical either way.  Events retarget the existing injectors: fault-rate knobs mutate
// the device configuration in place (so checkpoints capture the live
// rates), structural events flip the same state bits the RAS machinery
// maintains (dead links, failed vaults, busy banks).
//
// The invariant checker rides stage 6 after the cycle increment, every
// `chaos_invariants` cycles.  Every check is a closed-form conservation
// identity or occupancy bound over simulated state, so a pass costs a few
// hundred comparisons and nothing when the knob is off.  The first
// violation freezes the machine exactly like the forward-progress
// watchdog: clock() refuses further edges and a post-mortem report
// (violation + the watchdog-style state dump) is kept for inspection.
#pragma once

#include <functional>
#include <string>

#include "chaos/plan.hpp"
#include "common/status.hpp"
#include "core/config.hpp"

namespace hmcsim {

class Simulator;

/// The first invariant violation the checker observed.
struct ChaosViolation {
  std::string invariant;  ///< stable identifier, e.g. "link_token_identity"
  Cycle cycle{0};         ///< post-increment cycle of the failing check
  std::string detail;     ///< human-readable expected-vs-got description
};

class ChaosEngine {
 public:
  /// Captures the restore baselines (the fault rates the configuration
  /// started with) from `baseline`; `restore` events re-arm these values.
  explicit ChaosEngine(const DeviceConfig& baseline);

  /// Arm a compiled plan.  Validates every structural index against the
  /// configuration (link < num_links, vault < num_vaults); re-arming with
  /// a plan whose CRC matches the current one is a no-op so a checkpoint
  /// resume may re-pass the same plan file without resetting the cursor.
  [[nodiscard]] Status arm(ChaosPlan plan, const DeviceConfig& cfg,
                           std::string* diagnostic);

  [[nodiscard]] const ChaosPlan& plan() const { return plan_; }
  [[nodiscard]] u64 plan_crc() const { return chaos_plan_crc(plan_); }

  /// Apply every event due at the simulator's current cycle.  Called from
  /// clock() before any stage or fast-forward dispatch; invalidates the
  /// fast path when an event lands.
  void apply_due(Simulator& sim);

  /// Run the invariant suite when the cadence divides the (already
  /// incremented) cycle counter.  Called from stage 6; on the fast-forward
  /// path the arm horizon guarantees cadence cycles execute staged.
  void check_cadence(Simulator& sim);

  /// Run the invariant suite unconditionally (tools and tests).  Returns
  /// false — and latches the violation — on the first failing identity.
  bool check_now(Simulator& sim);

  /// First cycle >= the simulator's current cycle with a pending event
  /// (~Cycle{0} when the campaign is exhausted).  Fast-forward horizon.
  [[nodiscard]] Cycle next_event_cycle() const;

  [[nodiscard]] bool violated() const { return violated_; }
  [[nodiscard]] const ChaosViolation& violation() const { return violation_; }
  /// Violation + state dump, built when the first check failed ("" before).
  [[nodiscard]] const std::string& report() const { return report_; }

  /// Host-timeout squeeze wiring: `hook(cycles)` retargets the host
  /// driver's response deadline; `baseline` is the value `restore` re-arms.
  /// Installing the hook re-applies a live override (checkpoint resume).
  void set_host_timeout_hook(std::function<void(u64)> hook, u64 baseline);
  /// Host-side conservation probe (zombie-tag accounting); consulted by
  /// every invariant pass when installed.
  void set_host_probe(std::function<bool(std::string*)> probe);

  // Campaign progress, serialized in a checkpoint's CHAO section.
  [[nodiscard]] u64 cursor() const { return cursor_; }
  [[nodiscard]] u64 events_applied() const { return events_applied_; }
  [[nodiscard]] u64 invariant_checks() const { return invariant_checks_; }
  [[nodiscard]] bool host_timeout_active() const { return ht_active_; }
  [[nodiscard]] u64 host_timeout_value() const { return ht_value_; }
  [[nodiscard]] const DeviceConfig& baseline() const { return baseline_; }

  /// Adopt checkpointed campaign progress (restore path).  The cursor must
  /// not run past the plan.
  [[nodiscard]] Status restore_progress(u64 cursor, u64 events_applied,
                                        u64 invariant_checks, bool ht_active,
                                        u64 ht_value);
  /// Overwrite the captured baselines (restore path: the live config in the
  /// checkpoint already carries mid-campaign rates).
  void restore_baseline(u32 link_error_ppm, u32 link_burst, u32 dram_sbe,
                        u32 dram_dbe);

  /// Rewind campaign progress and clear any latched violation (reset()).
  /// Does not touch the baselines or the plan.
  void reset_progress();

 private:
  void apply_event(Simulator& sim, const ChaosEvent& ev);
  /// Returns false and records `violation_` on the first failing check.
  bool run_checks(Simulator& sim);
  void fail(Simulator& sim, const char* invariant, std::string detail);

  ChaosPlan plan_;
  u64 cursor_{0};           ///< next un-applied plan event
  u64 events_applied_{0};
  u64 invariant_checks_{0};
  bool violated_{false};
  ChaosViolation violation_;
  std::string report_;

  DeviceConfig baseline_;   ///< pre-campaign fault rates (restore targets)
  std::function<void(u64)> ht_hook_;
  u64 ht_baseline_{0};
  bool ht_active_{false};   ///< a host-timeout override is currently armed
  u64 ht_value_{0};
  std::function<bool(std::string*)> host_probe_;
};

}  // namespace hmcsim
