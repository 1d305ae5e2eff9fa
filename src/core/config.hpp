// Run-time configuration of HMC-Sim devices and simulator objects.
//
// Mirrors the paper's master initialization call:
//
//   hmcsim_init(&hmc, num_devs, num_links, num_vaults, queue_depth,
//               num_banks, num_drams, capacity, xbar_depth)
//
// plus the timing/behavior knobs our clock model exposes.  All devices
// within a single simulator object must be physically homogeneous (paper
// §V.A) — hence one DeviceConfig shared by every cube.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/limits.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"

namespace hmcsim {

/// Which default address map mode the device uses (paper §III.B).
enum class AddrMapMode : u8 {
  LowInterleave,  ///< spec default: vault bits lowest, then bank bits
  BankFirst,      ///< bank bits lowest (ablation A2)
  Linear,         ///< vault/bank bits highest (ablation A2, worst case)
};

/// Bank row-buffer management policy.
/// ClosedPage (the paper's implicit model): every access costs the full
/// bank cycle.  OpenPage: each bank keeps its last row open; a row hit
/// costs `row_hit_cycles`, a miss (precharge + activate) costs
/// `row_miss_cycles`.
enum class RowPolicy : u8 {
  ClosedPage,
  OpenPage,
};

/// How the vault controller picks requests to retire each cycle.
/// The spec's weak ordering model allows vaults to "reorder queued packets
/// in order to make most efficient use of bandwidth to and from the
/// respective vault banks" (§III.C) while preserving per-(link, bank)
/// stream order; StrictFifo disables that freedom (ablation A6).
enum class VaultSchedule : u8 {
  BankReady,   ///< retire any queued request whose bank is free (default)
  StrictFifo,  ///< retire in strict arrival order only
};

/// Vault bank-timing backend (see docs/BACKENDS.md).  The backend decides
/// when a bank can accept a command and how long it stays busy; everything
/// else — queues, crossbar, refresh scheduling, RAS — is backend-agnostic.
enum class TimingBackend : u8 {
  HmcDram,     ///< the paper's DRAM model (bank_busy_cycles / row policy)
  GenericDdr,  ///< parameterized tCL/tRCD/tRP/tRAS timing
  PcmLike,     ///< asymmetric read/write latency + write throttling
};

/// Canonical config-file / CLI spelling of a backend ("hmc_dram",
/// "generic_ddr", "pcm_like").
const char* to_string(TimingBackend backend);
/// Parse a backend name; returns false (and leaves `out` alone) on an
/// unknown spelling.
bool timing_backend_from_string(std::string_view name, TimingBackend* out);

struct DeviceConfig {
  // ---- structural (the paper's init parameters) ------------------------
  u32 num_links{4};        ///< 4 or 8
  u32 banks_per_vault{8};  ///< 8 or 16 (stacked die layers)
  u32 drams_per_bank{8};
  usize xbar_depth{128};   ///< crossbar arbitration queue slots per link
  usize vault_depth{64};   ///< vault request/response queue slots
  /// Expected device capacity in bytes; 0 derives it from the geometry.
  /// A nonzero value is validated against vaults * banks * 16 MiB, catching
  /// configuration mistakes early (the paper's init takes capacity
  /// explicitly).
  u64 capacity_bytes{0};

  // ---- addressing -------------------------------------------------------
  AddrMapMode map_mode{AddrMapMode::LowInterleave};
  u64 max_block_bytes{128};  ///< 32/64/128/256; sets the offset field width

  // ---- timing model -----------------------------------------------------
  /// Cycles a bank stays busy after serving one request (row cycle time in
  /// device clocks).
  u32 bank_busy_cycles{16};
  /// FLITs one crossbar link arbiter may forward toward vaults / peer
  /// devices per clock (link serialization bandwidth in the device domain).
  u32 xbar_flits_per_cycle{10};
  /// Maximum requests one vault controller retires per clock; 0 = bounded
  /// only by bank availability.
  u32 vault_drain_limit{0};
  /// Extra cycles a request pays when it enters on a link whose quadrant is
  /// not the destination vault's quadrant (paper: routed latency penalty).
  u32 nonlocal_penalty_cycles{1};
  /// Spatial window (in queue slots) stage 3 scans for bank conflicts.
  u32 conflict_window{16};
  /// DRAM refresh: every `refresh_interval_cycles` device clocks each vault
  /// controller takes all of its banks offline for `refresh_busy_cycles`
  /// (tREFI / tRFC).  Vault refreshes are staggered across the interval so
  /// the device never refreshes everywhere at once.  0 disables refresh
  /// (the paper's model).  Realistic values at 1.25 GHz: interval ~9750
  /// (7.8 us), busy ~440 (350 ns).
  u32 refresh_interval_cycles{0};
  u32 refresh_busy_cycles{440};
  /// Row-buffer policy (see RowPolicy).  Under OpenPage the bank busy time
  /// is row_hit_cycles on a row-buffer hit and row_miss_cycles on a miss;
  /// bank_busy_cycles is ignored.  Refresh closes every open row.
  RowPolicy row_policy{RowPolicy::ClosedPage};
  u32 row_hit_cycles{6};
  u32 row_miss_cycles{22};
  /// Vault retirement order (see VaultSchedule).
  VaultSchedule vault_schedule{VaultSchedule::BankReady};
  /// Bank-timing backend for every vault (see TimingBackend and
  /// docs/BACKENDS.md); individual vaults may override via
  /// `vault_backends`.
  TimingBackend timing_backend{TimingBackend::HmcDram};
  /// Per-vault backend overrides: pairs of (vault index, backend).  Vaults
  /// not listed use `timing_backend`.  Indices must be unique and below
  /// num_vaults().
  std::vector<std::pair<u32, TimingBackend>> vault_backends;
  /// generic_ddr timing knobs, in device clocks.  A row-buffer hit costs
  /// tCL; a miss (or any access under ClosedPage) costs
  /// max(tRCD + tCL, tRAS) + tRP.  With ddr_trcd = ddr_trp = ddr_tras = 0
  /// the model degenerates to a flat ddr_tcl busy window.  The defaults
  /// reproduce the hmc_dram default (bank_busy_cycles = 16):
  /// max(5 + 6, 11) + 5 = 16.
  u32 ddr_tcl{6};
  u32 ddr_trcd{5};
  u32 ddr_trp{5};
  u32 ddr_tras{11};
  /// pcm_like timing knobs, in device clocks.  Reads occupy the bank for
  /// pcm_read_cycles; writes (and atomics, which are read-modify-writes)
  /// for pcm_write_cycles.  pcm_write_gap_cycles additionally throttles
  /// write bandwidth vault-wide: after any write issues, further writes to
  /// the same vault wait that many cycles (0 = no throttle); stalled
  /// cycles are counted in the pcm_write_throttle_stalls statistic.
  u32 pcm_read_cycles{16};
  u32 pcm_write_cycles{48};
  u32 pcm_write_gap_cycles{0};
  /// True when `vault` (or any vault, with kAllVaults) resolves to
  /// `backend` under timing_backend + vault_backends.
  bool uses_backend(TimingBackend backend) const;
  /// The backend vault `vault` resolves to.
  TimingBackend backend_for_vault(u32 vault) const;

  // ---- fault injection ---------------------------------------------------
  /// Probability, in parts per million, that a request packet crossing a
  /// crossbar link suffers an unrecoverable link error (CRC failure after
  /// retry exhaustion).  The packet dies and an ERROR response with
  /// ERRSTAT=CRC_FAILURE returns to the host.  Deterministic per seed.
  u32 link_error_rate_ppm{0};
  /// Seed for the per-device fault-injection generator.
  u64 fault_seed{0x5eed};
  /// Link-level retry budget (spec: IRTRY/retry-pointer protocol).  A
  /// packet hit by an injected link error is retransmitted from the retry
  /// buffer up to this many times before it is dropped and an ERROR
  /// response returns; each retransmission costs one cycle of link time.
  /// 0 disables retry (every injected error is fatal) — illegal when
  /// link_protocol is on (the spec protocol always retries).
  u32 link_retry_limit{0};

  // ---- link layer: spec-faithful retry / token protocol -------------------
  /// Enable the HMC 1.0 link reliability layer (core/link_layer.hpp):
  /// FRP-addressed transmit retry buffers with RRP deallocation, 3-bit SEQ
  /// continuity, token-based injection gating, and the IRTRY error-abort
  /// recovery machine.  Off (the default) keeps the legacy abstract model:
  /// a per-packet coin flip with a bare retry counter.
  bool link_protocol{false};
  /// Input-buffer token pool per link, in FLITs.  A transmission debits its
  /// FLIT count and blocks at zero tokens; credits return when the receiver
  /// drains the packet onward.  0 derives xbar_depth * 4.  An explicit
  /// value must fit at least one maximal 9-FLIT packet.
  u32 link_tokens{0};
  /// Transmit retry-buffer capacity in FLITs (8-bit FRP: at most 256).
  /// Packets occupy slots from transmission until RRP acknowledgement.
  u32 link_retry_buffer_flits{256};
  /// Cycles one error-abort exchange occupies the link: the receiver
  /// streams StartRetry IRTRYs, the transmitter answers PRET and replays,
  /// the receiver clears with ClearError IRTRYs.
  u32 link_retry_latency{8};
  /// Burst fault mode: one fault-model hit corrupts this many consecutive
  /// transmissions on the link (1 = uniform single-packet errors).
  u32 link_error_burst_len{1};
  /// Stuck-link fault mode: every `interval` cycles the link retrains for
  /// `window` cycles, backpressuring traffic (no loss).  0 disables.
  u32 link_stuck_interval_cycles{0};
  u32 link_stuck_window_cycles{0};
  /// Dead-link escalation: after this many retry-exhaustion events a link
  /// is marked dead and all queued or arriving requests are answered with
  /// ERRSTAT=LINK_FAILED (the VAULT_FAILED-style host-visible error).
  /// 0 disables escalation.
  u32 link_fail_threshold{0};

  // ---- RAS: DRAM fault domain -------------------------------------------
  /// Probability, in parts per million, that a retired DRAM access plants a
  /// single-bit fault in one 64-bit word of the addressed block.  Reads
  /// discover (and the SECDED codec corrects) such faults immediately;
  /// writes plant latent faults found later by reads or the scrubber.
  u32 dram_sbe_rate_ppm{0};
  /// As above but two bits flip in the same word: reads of the word return
  /// an ERROR response with ERRSTAT=DRAM_DBE and the word stays poisoned
  /// until overwritten or retired by the scrubber.
  u32 dram_dbe_rate_ppm{0};
  /// Background scrubber: every this-many device clocks the scrubber checks
  /// one window of `scrub_window_bytes` and advances its cursor, wrapping at
  /// capacity.  Discovered SBEs are repaired; DBEs are counted and the page
  /// retired (word rebuilt).  0 disables scrubbing.
  u32 scrub_interval_cycles{0};
  u64 scrub_window_bytes{4096};

  // ---- RAS: vault degradation -------------------------------------------
  /// A vault that accumulates this many uncorrectable DRAM errors is marked
  /// failed (dynamic degradation).  0 disables dynamic failure.
  u32 vault_fail_threshold{0};
  /// Bit i set marks vault i failed from reset (static degradation).
  u64 failed_vault_mask{0};
  /// When true, traffic addressed to a failed vault is remapped to its
  /// partner vault (vault ^ 1) if that partner is alive; otherwise (or when
  /// false) the request is answered with ERRSTAT=VAULT_FAILED.
  bool vault_remap{false};

  // ---- RAS: forward-progress watchdog -----------------------------------
  /// After this many consecutive clocks with queued work but no progress
  /// anywhere in the device set, the simulator trips its watchdog and
  /// refuses further clocks (Status::Deadlock + diagnostic report).  Must
  /// comfortably exceed refresh_busy_cycles and worst-case queue latency;
  /// 0 disables the watchdog.
  u32 watchdog_cycles{0};

  // ---- execution ----------------------------------------------------------
  /// No effect: the clock engine is serial.  Kept only because the
  /// committed benchmark program assigns it; delete it with the next
  /// benchmark change.
  u32 sim_threads{1};
  /// Idle-cycle fast-forward: when every crossbar and vault queue is empty
  /// the clock engine skips the six sub-cycle stages and advances time with
  /// an O(1) fast path, emulating the per-cycle state mutations (link budget
  /// refills, refresh events, watchdog stall accounting) in closed form at
  /// the moment traffic resumes.  Bit-identical to the slow path — the
  /// differential harness proves stats, checkpoint bytes, and latency
  /// histograms match with the knob on and off.  This is an execution knob,
  /// not device state, and is not serialized into checkpoints.
  bool fast_forward{true};

  // ---- observability (execution knobs, never serialized) ------------------
  /// Time the six clock stages with the monotonic clock, attributed per
  /// device and per vault (src/profile/profiler.hpp).  Pure observation:
  /// simulation results are bit-identical with the knob on or off.  Not
  /// serialized into checkpoints.
  bool self_profile{false};
  /// Sample queue/token/retry-buffer occupancy into high-water marks and
  /// histograms every this-many clocks (src/profile/telemetry.hpp); 0
  /// disables.  Sampling rides the stage-6 dispatch point and bounds the
  /// fast-forward skip window (like the cycle hook).  Not serialized.
  u32 telemetry_interval_cycles{0};
  /// Retain the last N structured events per device in a post-mortem ring
  /// buffer (src/profile/flight_recorder.hpp); 0 disables.  The retained
  /// window dumps into the watchdog diagnostic report and on demand.  Not
  /// serialized.
  u32 flight_recorder_depth{0};
  /// Write a rotated checkpoint generation every this-many clocks when a
  /// run harness supplies a checkpoint directory (tools/hmcsim_run.cpp);
  /// 0 disables.  Like the other knobs in this block it describes how the
  /// run is supervised, not device state, and is never serialized: a
  /// checkpoint must be byte-identical whether or not the run that wrote
  /// it was auto-checkpointing.
  u32 checkpoint_interval_cycles{0};
  /// Run the chaos live invariant checker (closed-form conservation
  /// identities, queue bounds, watchdog liveness; src/chaos/engine.cpp)
  /// every this-many clocks; 0 disables.  The check cadence rides the
  /// stage-6 dispatch point and bounds the fast-forward skip window.  An
  /// execution knob like the rest of this block: checks read simulated
  /// state but never change it, and the knob is never serialized.
  u32 chaos_invariants{0};

  // ---- data model ---------------------------------------------------------
  /// When false, memory payloads are not stored/fetched (reads return
  /// zeros).  Benches disable data to keep multi-GB random-access runs
  /// resident-set friendly; functional users keep it on.
  bool model_data{true};

  // ---- derived ------------------------------------------------------------
  [[nodiscard]] u32 num_quads() const { return num_links; }
  [[nodiscard]] u32 num_vaults() const {
    return num_links * spec::kVaultsPerQuad;
  }
  [[nodiscard]] u64 derived_capacity() const {
    return u64{num_vaults()} * banks_per_vault * spec::kBankBytes;
  }
  [[nodiscard]] Geometry geometry() const {
    return Geometry{num_vaults(), banks_per_vault, drams_per_bank,
                    spec::kBankBytes};
  }

  /// Build the configured address map.
  [[nodiscard]] AddressMap make_address_map() const;

  /// Check every structural constraint; returns a diagnostic on failure.
  [[nodiscard]] Status validate(std::string* diagnostic = nullptr) const;
};

struct SimConfig {
  u32 num_devices{1};
  DeviceConfig device{};

  [[nodiscard]] Status validate(std::string* diagnostic = nullptr) const;

  /// The cube id the paper assigns to host endpoints: one greater than the
  /// number of devices.
  [[nodiscard]] u32 host_cub() const { return num_devices; }
};

/// Convenience constructors for the paper's four Table I configurations.
[[nodiscard]] DeviceConfig table1_config_4link_8bank();   // 2 GB
[[nodiscard]] DeviceConfig table1_config_4link_16bank();  // 4 GB
[[nodiscard]] DeviceConfig table1_config_8link_8bank();   // 4 GB
[[nodiscard]] DeviceConfig table1_config_8link_16bank();  // 8 GB

}  // namespace hmcsim
