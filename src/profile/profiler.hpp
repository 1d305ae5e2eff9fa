// Simulator self-profiler: steady-clock wall-time attribution for the
// six-stage clock engine.
//
// The clock() dispatch loop times each stage as a whole, and the stage
// loops additionally time each device for the crossbar stages (1-2) and
// each vault for the fused stage 3-4, each into a slot of its own.  The
// clock engine is serial, so every counter is a plain add.
//
// The profiler is pure observation: it reads the monotonic clock and adds
// to counters, never branching simulation behavior — runs with it on are
// bit-identical to runs with it off (differential-proven).  Wall times are
// inherently non-deterministic; everything the simulation can observe is
// not derived from them.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace hmcsim {

/// Profiled phases of one clock() call.  Stages 3 and 4 are fused in the
/// engine (one pass per vault does conflict recognition + retirement), so
/// they are attributed as one phase; FastForward accounts the O(1) skip
/// path (see DeviceConfig::fast_forward).
enum class ProfileStage : u8 {
  Stage1Xbar,     ///< child-device link crossbar
  Stage2RootXbar, ///< root-device link crossbar
  Stage34Vaults,  ///< bank-conflict recognition + vault retirement (fused)
  Stage5Responses,///< response registration and link transfer (serial)
  Stage6Clock,    ///< scrub step, register edge, clock update, watchdog
  FastForward,    ///< idle-cycle skip path (arm checks + fast cycles)
};

inline constexpr usize kProfileStageCount = 6;

[[nodiscard]] const char* profile_stage_name(ProfileStage stage);

class StageProfiler {
 public:
  /// Size the per-device / per-vault slot arrays.  `vaults_per_device` uses
  /// the homogeneous-device geometry (all cubes alike).
  StageProfiler(u32 num_devices, u32 vaults_per_device);

  /// Monotonic nanoseconds (std::chrono::steady_clock).
  [[nodiscard]] static u64 now_ns();

  // ---- recording (hot path; plain adds) ------------------------------------
  void add_stage(ProfileStage stage, u64 ns) {
    stage_ns_[static_cast<usize>(stage)] += ns;
  }
  /// Per-device attribution for the crossbar stages.
  void add_device(ProfileStage stage, u32 dev, u64 ns) {
    device_ns_[static_cast<usize>(stage)][dev] += ns;
  }
  /// Per-(device, vault) attribution for stage 3-4.
  /// The engine feeds this on a 1-in-16-cycle sample (keyed to the
  /// deterministic cycle counter), so vault_ns values are relative weights
  /// for ranking vaults, not wall-time totals.
  void add_vault(u32 dev, u32 vault, u64 ns) {
    vault_ns_[usize{dev} * vaults_per_device_ + vault] += ns;
  }
  void note_staged_cycle() { ++staged_cycles_; }
  void note_fast_cycle() { ++fast_cycles_; }
  void note_skip_span() { ++skip_spans_; }

  // ---- reporting ---------------------------------------------------------
  [[nodiscard]] u64 stage_ns(ProfileStage stage) const {
    return stage_ns_[static_cast<usize>(stage)];
  }
  [[nodiscard]] u64 total_ns() const;
  [[nodiscard]] u64 device_ns(ProfileStage stage, u32 dev) const {
    return device_ns_[static_cast<usize>(stage)][dev];
  }
  [[nodiscard]] u64 vault_ns(u32 dev, u32 vault) const {
    return vault_ns_[usize{dev} * vaults_per_device_ + vault];
  }
  [[nodiscard]] u32 num_devices() const { return num_devices_; }
  [[nodiscard]] u32 vaults_per_device() const { return vaults_per_device_; }
  /// clock() calls that executed the full six-stage pass.
  [[nodiscard]] u64 staged_cycles() const { return staged_cycles_; }
  /// clock() calls absorbed by the fast-forward skip path.
  [[nodiscard]] u64 fast_cycles() const { return fast_cycles_; }
  /// Contiguous fast-forward spans (disarm events close a span).
  [[nodiscard]] u64 skip_spans() const { return skip_spans_; }

  void reset();

 private:
  u32 num_devices_;
  u32 vaults_per_device_;
  u64 stage_ns_[kProfileStageCount]{};
  u64 staged_cycles_{0};
  u64 fast_cycles_{0};
  u64 skip_spans_{0};
  /// Per-device time for Stage1Xbar / Stage2RootXbar (other stages
  /// unused but kept uniform for simple indexing).
  std::vector<u64> device_ns_[kProfileStageCount];
  std::vector<u64> vault_ns_;  ///< [dev * vaults_per_device + vault]
};

}  // namespace hmcsim
