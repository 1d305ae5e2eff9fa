// The HMC-Sim simulator object: one or more homogeneous HMC devices, a link
// topology, and the six-stage sub-cycle clock engine (paper §IV.C).
//
// External memory operations (host-visible API):
//   * send()  — inject a request packet on a host link (stalls when the
//               crossbar arbitration queue is full);
//   * recv()  — drain a response packet from a host link;
//   * jtag_*  — side-band register access outside the clock domains.
//
// Internal memory operations advance only on clock():
//   stage 1: process child-device link crossbar transactions
//   stage 2: process root-device link crossbar request transactions
//   stage 3: recognize bank conflicts on vault request queues
//   stage 4: process vault queue memory request transactions
//   stage 5: register response packets with crossbar response queues
//            (root devices first, then children)
//   stage 6: update the internal 64-bit clock value
//
// A packet progresses by at most one internal stage per clock — it cannot
// move from the crossbar interface to a memory bank in a single cycle.
//
// The stages run serially, in the order above.  Two rules make the work
// done for one device (stages 1-2) or one vault (stages 3-4) independent of
// the devices or vaults visited before it in the same stage.  Both define
// simulated behaviour, so the goldens and checkpoint fixtures depend on
// them:
//   * a cross-device request forward is two-phase: process_xbar reserves
//     space against a stage-start snapshot of every destination queue and
//     stages the packet in the source device's outbox; flush_outboxes then
//     pushes the outboxes in device order and bounces losers back to the
//     head of their source queue;
//   * stage 4 skips vaults that were already failed at stage start and
//     drains them after every live vault, so a vault that fails mid-stage
//     still finishes its own pass.
// Stages 3 and 4 run back to back per vault (scan, then retire), and each
// vault draws DRAM faults from its own generator (VaultState::dram_rng).
// See docs/INTERNALS.md.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "core/checkpoint.hpp"
#include "core/custom_command.hpp"
#include "core/device.hpp"
#include "profile/flight_recorder.hpp"
#include "profile/profiler.hpp"
#include "profile/telemetry.hpp"
#include "topo/topology.hpp"
#include "trace/lifecycle.hpp"
#include "trace/tracer.hpp"

namespace hmcsim {

class Simulator {
 public:
  Simulator() = default;

  /// Master initialization (paper §V.A): configure `config.num_devices`
  /// homogeneous devices wired by `topo`, and reset them to an identical
  /// power-on state.  The topology's device/link counts must match the
  /// config.  Must be called before any other member.
  Status init(const SimConfig& config, Topology topo,
              std::string* diagnostic = nullptr);

  /// Convenience initialization for the single-device, all-links-to-host
  /// configuration (Figure 1 "Simple").
  Status init_simple(const DeviceConfig& device,
                     std::string* diagnostic = nullptr);

  [[nodiscard]] bool initialized() const { return !devices_.empty(); }

  // ---- host-edge packet interface -----------------------------------------

  /// Inject a fully formed, CRC-sealed request packet on host link `link`
  /// of root device `dev`.  Returns:
  ///   Stalled          — crossbar arbitration queue full; clock and retry.
  ///   InvalidArgument  — bad device/link, or the link is not host-wired.
  ///   MalformedPacket  — packet fails structural validation.
  Status send(u32 dev, u32 link, const PacketBuffer& packet);

  /// Drain the next response packet pending on host link `link`; returns
  /// NoResponse when none is ready.  Responses may arrive out of order;
  /// hosts correlate via the 9-bit TAG.
  Status recv(u32 dev, u32 link, PacketBuffer& out);

  /// Progress every internal device operation by one clock cycle (one full
  /// pass of sub-cycle stages 1..6).
  ///
  /// When DeviceConfig::fast_forward is on and every crossbar/vault queue
  /// is empty, the call takes an O(queues) fast path instead of executing
  /// the six stages: the clock still advances by exactly one cycle and all
  /// observable state (stats, checkpoint bytes, register views, watchdog
  /// accounting) stays bit-identical to the staged path — the fast path
  /// only arms once the per-cycle idle mutations (link budget refills, RWS
  /// register self-clears) have reached their fixed point, and it disarms
  /// before any cycle with a non-idempotent event (scrub step, staggered
  /// vault refresh, user cycle hook).  See docs/INTERNALS.md.
  void clock();

  [[nodiscard]] Cycle now() const { return cycle_; }

  /// Clock cycles advanced via the idle fast path since init/reset.  Always
  /// `cycles_skipped() <= now()`; the difference is the number of cycles
  /// that executed the full six-stage pass.  Restoring a checkpoint resets
  /// this counter (it is an execution statistic, not device state, and is
  /// deliberately not serialized).
  [[nodiscard]] u64 cycles_skipped() const { return cycles_skipped_; }

  // ---- side-band register interface (JTAG / I2C; paper §V.D) ---------------

  /// Read/write a device register by its architected physical index.  These
  /// bypass the packet path and the clock domains entirely.
  ///
  /// Status registers are LIVE: FEAT reports the device geometry
  /// (capacity-GB[7:0] | links[11:8] | banks[19:12] | vaults[27:20]),
  /// IBTCn reports the current free input-buffer token count of link n
  /// (its request-queue free slots), and ERR reports the cumulative error
  /// response count (injected link errors in the high word).
  Status jtag_reg_read(u32 dev, u32 phys_index, u64& value) const;
  Status jtag_reg_write(u32 dev, u32 phys_index, u64 value);

  // ---- tracing ---------------------------------------------------------------

  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

  // ---- lifecycle observability ----------------------------------------------

  /// Attach an observer of completed packet lifecycles (per-stage cycle
  /// stamps; see trace/lifecycle.hpp).  Observers fire at recv() for every
  /// drained response that traversed a vault.  Stamping itself is always
  /// on (plain cycle stores at queue hops); only the dispatch is gated on
  /// observer presence.
  void add_lifecycle_observer(std::shared_ptr<LifecycleObserver> observer) {
    lifecycle_observers_.push_back(std::move(observer));
  }
  void clear_lifecycle_observers() { lifecycle_observers_.clear(); }

  /// Install `hook` to run at the end of every clock() whose resulting
  /// cycle count is a multiple of `interval` (0 uninstalls).  Used by the
  /// periodic metrics sampler; costs one branch per clock when idle.
  void set_cycle_hook(Cycle interval,
                      std::function<void(const Simulator&)> hook) {
    hook_interval_ = interval;
    cycle_hook_ = std::move(hook);
    ff_invalidate();  // the hook schedule bounds the fast-forward stop cycle
  }

  // ---- observability -----------------------------------------------------------

  [[nodiscard]] const SimConfig& config() const { return config_; }
  /// Always 1: the clock engine is serial.  Kept only because the committed
  /// benchmark program prints it; delete it with the next benchmark change.
  [[nodiscard]] u32 sim_threads() const { return 1; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] u32 num_devices() const {
    return static_cast<u32>(devices_.size());
  }
  [[nodiscard]] const Device& device(u32 dev) const { return *devices_[dev]; }
  [[nodiscard]] Device& device(u32 dev) { return *devices_[dev]; }
  [[nodiscard]] const DeviceStats& stats(u32 dev) const {
    return devices_[dev]->stats;
  }
  [[nodiscard]] DeviceStats total_stats() const;

  /// True when every queue in every device is empty (all in-flight traffic
  /// has drained to the host or died as an error response).
  [[nodiscard]] bool quiescent() const;

  // ---- self-observation (src/profile/; all off by default) -----------------

  /// Stage wall-time profiler; null unless DeviceConfig::self_profile.
  [[nodiscard]] const StageProfiler* profiler() const {
    return profiler_.get();
  }
  /// Occupancy telemetry; null unless telemetry_interval_cycles != 0.
  [[nodiscard]] Telemetry* telemetry() { return telemetry_.get(); }
  [[nodiscard]] const Telemetry* telemetry() const { return telemetry_.get(); }
  /// Flight recorder; null unless flight_recorder_depth != 0.
  [[nodiscard]] const FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }
  /// Close any open fast-forward skip span so profiler span counts and the
  /// recorder's FF_SKIP_SPAN events reflect skipping up to now().  Call
  /// before reading the profiler/recorder at end of run; the clock engine
  /// closes spans itself whenever the staged path resumes.
  void flush_observability() { ff_close_skip_span(); }

  /// Text dump of the flight recorder (oldest events first).  Returns false
  /// when the recorder is off.
  bool dump_flight_recorder(std::ostream& os);
  /// Chrome-trace (Trace Event Format) dump of the flight recorder.
  bool dump_flight_recorder_chrome(std::ostream& os);

  // ---- forward-progress watchdog -------------------------------------------

  /// True once the watchdog has tripped: `watchdog_cycles` consecutive
  /// clocks saw queued work but zero progress anywhere (no retire, no
  /// response, no hop, no retry, no host drain).  Further clock() calls are
  /// ignored; the simulation is frozen for post-mortem inspection.
  [[nodiscard]] bool watchdog_fired() const { return watchdog_fired_; }

  /// Diagnostic dump captured at the moment the watchdog fired: per-device
  /// queue occupancies and the in-flight entries (tags, addresses,
  /// lifecycle stamps).  Empty until watchdog_fired().
  [[nodiscard]] const std::string& watchdog_report() const {
    return watchdog_report_;
  }

  // ---- chaos orchestration (src/chaos/; docs/CHAOS.md) ---------------------

  /// Arm a compiled chaos plan: events apply deterministically from the
  /// clock loop at their exact cycles, on the staged and the fast-forward
  /// path alike.  Structural indices are validated against the
  /// configuration; on a checkpoint resume, re-passing the same plan is a
  /// no-op (the restored cursor survives) while a different plan is
  /// rejected.  Requires an initialized simulator.
  Status set_chaos_plan(ChaosPlan plan, std::string* diagnostic = nullptr);

  /// The engine; null unless a plan was armed or chaos_invariants != 0.
  [[nodiscard]] ChaosEngine* chaos() { return chaos_.get(); }
  [[nodiscard]] const ChaosEngine* chaos() const { return chaos_.get(); }

  /// True once a live invariant check has failed.  Like the watchdog, the
  /// machine freezes at the first violation: further clock() calls are
  /// ignored so the state can be inspected post-mortem.
  [[nodiscard]] bool chaos_violated() const {
    return chaos_ != nullptr && chaos_->violated();
  }

  /// Violation + machine state dump captured at the first failing check
  /// ("" until chaos_violated()).
  [[nodiscard]] const std::string& chaos_report() const;

  /// Reset devices and the clock to the power-on state (topology intact).
  void reset(bool clear_memory = true);

  // ---- custom memory cube commands (CMC) -----------------------------------

  /// Register a user-defined command under a reserved 6-bit encoding.
  /// Registered commands flow through the full pipeline (crossbar routing,
  /// bank timing, ordering, responses) on every device of this object.
  /// Registration is only permitted while the devices are quiescent.
  Status register_custom_command(u8 raw_cmd, CustomCommandDef def);

  [[nodiscard]] const CustomCommandSet& custom_commands() const {
    return custom_;
  }

  // ---- checkpointing (implemented in core/checkpoint.cpp) ------------------

  /// Serialize the complete simulator state — configuration, topology,
  /// clock, every queue entry and in-flight packet, registers, bank timing
  /// and memory contents — to a versioned binary stream (format v6:
  /// per-section length + CRC-32K framing and a trailer magic; see
  /// docs/FORMATS.md §5).  A restored simulator continues cycle-for-cycle
  /// identically.  Host-side state (outstanding-tag bookkeeping in
  /// drivers) rides in the optional HOST section: pass it as `host_blob`.
  Status save_checkpoint(std::ostream& os) const;
  Status save_checkpoint(std::ostream& os, CheckpointError* err,
                         std::string_view host_blob) const;

  /// Rebuild this simulator from a checkpoint stream.  Any existing state
  /// is discarded.  Accepts every version back to v2; every failure —
  /// bad magic, short read, section CRC mismatch, impossible field value,
  /// unknown version — is converted into a typed CheckpointError (never an
  /// abort or out-of-bounds access, whatever the input).  Status mapping:
  /// MalformedPacket for structural damage, InvalidConfig for impossible
  /// decoded values.  A v6 HOST section, when present, is handed back
  /// verbatim through `host_blob_out`.
  Status restore_checkpoint(std::istream& is);
  Status restore_checkpoint(std::istream& is, CheckpointError* err,
                            std::string* host_blob_out);

  /// File entry points: save writes atomically (temp + fsync + rename via
  /// io/atomic_file.hpp) so an interrupted save can never tear an existing
  /// checkpoint; restore memory-buffers the file.  Both surface typed
  /// errors through `err`.
  Status save_checkpoint_file(const std::string& path,
                              CheckpointError* err = nullptr,
                              std::string_view host_blob = {}) const;
  Status restore_checkpoint_file(const std::string& path,
                                 CheckpointError* err = nullptr,
                                 std::string* host_blob_out = nullptr);

 private:
  // Version-dispatched restore bodies (core/checkpoint.cpp).  The legacy
  // path parses the pre-v6 continuous stream; the v6 path walks the
  // section frames.
  Status restore_checkpoint_legacy_(std::istream& is, u32 version,
                                    CheckpointError* err);
  Status restore_checkpoint_v6_(std::istream& is, u32 version,
                                CheckpointError* err,
                                std::string* host_blob_out);

  /// A cross-device request forward staged by process_xbar and pushed by
  /// flush_outboxes after every device of the stage has run (two-phase
  /// push: the destination queue belongs to another device, so the push
  /// happens in fixed device order).
  struct StagedForward {
    RequestEntry entry;
    u32 src_link{0};      ///< source-device queue the entry left
    u32 out_link{0};      ///< egress link chosen by routing (for tracing)
    u32 dst_dev{0};
    u32 dst_link{0};
    u32 flits{0};
    /// Original ingress fields, restored if the flush bounces the entry
    /// back to the source queue.
    u32 src_ingress{0};
    bool src_penalty{false};
  };

  /// Per-device state for the stage 1-2 two-phase forward.
  struct XbarScratch {
    std::vector<StagedForward> outbox;
    /// Forwards staged toward each global (device, link) request queue,
    /// checked against the pre-stage free-slot snapshot `xbar_free_`.
    std::vector<u32> staged;
  };

  // Sub-cycle stages.
  void stage1_child_xbar();
  void stage2_root_xbar();
  void stage3_and_4_vaults();
  void stage5_responses();
  void stage6_clock_update();

  /// Stages 1-2 driver: snapshot destination capacity, run process_xbar
  /// over `devs` in order, then flush the cross-device outboxes.
  void run_xbar_stage(const std::vector<u32>& devs, u8 stage);
  void flush_outboxes(const std::vector<u32>& devs, u8 stage);

  /// Shared crossbar logic for stages 1 and 2.
  void process_xbar(Device& dev, u8 stage, XbarScratch& sc);

  /// Stage 3 for one vault: scan the request queue's conflict window.
  void scan_bank_conflicts(Device& dev, u32 vault_index);
  /// Stage 4 helpers.
  void process_vault(Device& dev, u32 vault_index);
  /// Drain a failed vault's queued requests as VAULT_FAILED errors.
  void drain_failed_vault(Device& dev, u32 vault_index);
  /// Retire one request at a bank: perform the memory/register operation
  /// and enqueue the response (when non-posted).  Returns false when the
  /// vault response queue is full (the entry must stay queued).
  bool retire_request(Device& dev, u32 vault_index, RequestEntry& entry);

  /// Build an error response for a failed request and stage it in
  /// dev.mode_rsp.  Returns false when that queue is full.
  bool emit_error_response(Device& dev, const RequestEntry& entry,
                           ErrStat errstat, u8 stage);

  /// Outcome of the legacy (link_protocol off) per-transmission fault roll.
  enum class LegacyFault : u8 {
    None,     ///< no injected error; the transmission proceeds
    Replay,   ///< retried from the retry buffer; the link is blocked
    Killed,   ///< retry budget exhausted; error response emitted, remove
    Blocked,  ///< kill wanted but the staging queue is full; retry later
  };

  /// Shared legacy fault-injection roll for both crossbar forwarding sites
  /// (peer-forward and link-to-vault).  Rolls the device fault generator,
  /// charges retries against the budget, re-validating the retry-buffer
  /// copy's CRC before every replay, and emits the CRC_FAILURE error once
  /// the budget is spent.  No-op (no RNG draw) when the spec link protocol
  /// is on — injection then happens at link arrival instead.
  LegacyFault legacy_link_fault(Device& dev, LinkState& link_state,
                                RequestEntry& entry, u8 stage);

  /// Link-layer protocol prologue for one crossbar link: drain a dead
  /// link's queue as LINK_FAILED errors, account retraining cycles, and
  /// step the error-abort replay machine.  Returns false when the link is
  /// dead (the caller skips normal processing).
  bool step_link_protocol(Device& dev, u32 link, u8 stage);

  /// Stage 5 helpers.
  void drain_response_queue(Device& dev, BoundedQueue<ResponseEntry>& queue,
                            u32 vault_for_trace);
  void transfer_link_responses(Device& dev);

  /// Exit link a response should take from `dev` toward its home port, or
  /// kNoCoord when unreachable.
  [[nodiscard]] u32 response_exit_link(const Device& dev,
                                       const ResponseEntry& e) const;

  void trace(TraceEvent event, u8 stage, u32 dev, u32 link, u32 quad,
             u32 vault, u32 bank, PhysAddr addr, Tag tag, Command cmd);

  /// Register read with live status-register interception (FEAT geometry,
  /// IBTC token counts, ERR error totals, RAS error log); shared by the
  /// JTAG and MODE_READ paths.
  [[nodiscard]] Status read_register_live(const Device& dev, u32 phys_index,
                                          u64& value) const;

  // ---- RAS helpers (core/ras.cpp) ------------------------------------------

  /// Roll the DRAM fault model for one retired access and plant the
  /// resulting bit flips (transient on read, latent on write).  Draws from
  /// the serving vault's own generator.
  void inject_dram_fault(Device& dev, u32 vault_index, PhysAddr addr,
                         usize bytes);
  /// Run the SECDED codec over a read footprint.  Returns true when an
  /// uncorrectable error poisons the access (the caller must answer
  /// DRAM_DBE instead of data).
  bool ras_check_read(Device& dev, u32 vault_index, PhysAddr addr,
                      usize bytes);
  /// One background-scrubber step over the device's next window.
  void scrub_step(Device& dev);
  /// Count one uncorrectable error against a vault; marks it failed at the
  /// configured threshold.
  void note_vault_uncorrectable(Device& dev, u32 vault_index);
  /// Forward-progress tracking (end of stage 6).
  [[nodiscard]] u64 progress_fingerprint() const;
  void check_watchdog();
  [[nodiscard]] std::string build_watchdog_report() const;
  /// Machine snapshot (queues, link protocol state, in-flight entries,
  /// flight-recorder tail) shared by the watchdog report and the chaos
  /// invariant-violation report.
  [[nodiscard]] std::string build_state_dump() const;

  // ---- observability helpers (src/profile/ wiring) -------------------------

  /// Record one flight-recorder event.  No-op when the recorder is off.
  void record_event(FlightEventType type, u32 dev, u8 stage, u16 unit,
                    u64 arg);
  /// One telemetry sampling pass over every device's queues/token pools.
  void sample_telemetry();
  /// Close an open fast-forward skip span: bump the profiler span count and
  /// record the FF_SKIP_SPAN event (on device 0's ring — spans are global).
  void ff_close_skip_span();
  /// Record the watchdog transition on every device's ring.
  void record_watchdog_event(FlightEventType type, u64 arg);

  // ---- idle-cycle fast-forward engine (core/simulator.cpp) -----------------

  /// Arm the fast path: prove that a full six-stage pass over the current
  /// state would only perform idempotent idle mutations, and compute the
  /// stop cycle — the next clock whose pass has an effect the fast path
  /// does not emulate (scrub step, staggered vault refresh, cycle hook).
  /// Returns false when idle cycles cannot be proven side-effect-free yet
  /// (non-empty queues, link budgets below their refill fixed point, RWS
  /// registers awaiting their self-clearing edge).
  bool ff_arm();
  /// One fast cycle: re-verify queue emptiness (guarding against direct
  /// Device mutation between calls), advance the clock, and emulate the
  /// watchdog bookkeeping against the quiescence/fingerprint facts frozen
  /// at arm time.  Returns false when the staged path must run instead.
  bool ff_fast_cycle();
  /// Every queue a clock stage would consume is empty.  Host-link response
  /// queues are exempt: stage 5 never touches them (they drain via recv()),
  /// so pending host responses are inert during a skip — though they do
  /// keep quiescent() false, which the watchdog emulation accounts for.
  [[nodiscard]] bool ff_queues_idle() const;
  /// Drop the armed state.  Called by every mutation outside the clock
  /// domain (send/recv/JTAG writes/hook changes/custom-command
  /// registration); state is always materialized, so invalidation is just
  /// a flag clear and the next clock() re-proves eligibility.
  void ff_invalidate() { ff_armed_ = false; }

  SimConfig config_{};
  Topology topo_{};
  CustomCommandSet custom_{};
  std::vector<std::unique_ptr<Device>> devices_;
  Cycle cycle_{0};
  Tracer tracer_{};
  std::vector<std::shared_ptr<LifecycleObserver>> lifecycle_observers_;
  Cycle hook_interval_{0};
  std::function<void(const Simulator&)> cycle_hook_;
  /// Device processing order caches for stages 1/2/5.
  std::vector<u32> root_devices_;
  std::vector<u32> child_devices_;
  /// Stage 1-2 outboxes, one per device in stage order, sized at init so
  /// the hot loop never allocates.
  std::vector<XbarScratch> xbar_scratch_;
  /// Pre-stage snapshot of every (device, link) request queue's free slots
  /// (capacity reservation base for the two-phase cross-device forward).
  std::vector<u32> xbar_free_;
  /// Start-of-stage-4 failed-vault masks: vaults set here skip stage 4 and
  /// drain after every live vault; bits earned during the stage wait for
  /// the next cycle.
  std::vector<u64> failed_snapshot_;
  /// flush_outboxes working state (members to avoid per-cycle allocation).
  std::vector<u8> bounce_mark_;
  std::vector<StagedForward> bounced_;
  /// Forward-progress watchdog state.
  bool watchdog_fired_{false};
  u32 watchdog_stall_cycles_{0};
  u64 watchdog_fingerprint_{0};
  std::string watchdog_report_;
  /// Idle-cycle fast-forward state (see DeviceConfig::fast_forward).  Not
  /// serialized: an execution property — checkpoints are byte-identical
  /// with the knob on or off.
  u64 cycles_skipped_{0};
  bool ff_armed_{false};
  /// First cycle whose clock() call must run the staged path (exclusive
  /// skip bound); kNoStopCycle when nothing bounds the skip.
  Cycle ff_stop_cycle_{0};
  /// quiescent() / progress_fingerprint() frozen at arm time; both are
  /// invariant across fast cycles (only host recv/send change them, and
  /// those invalidate), letting the watchdog emulation run in O(1).
  bool ff_quiescent_{false};
  u64 ff_fingerprint_{0};
  /// Self-observation layer (src/profile/); all null unless the matching
  /// DeviceConfig knob enables them.  Pure observation: none of these may
  /// influence simulated state (differential-proven).
  std::unique_ptr<StageProfiler> profiler_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<FlightRecorder> recorder_;
  /// Fast cycles in the currently open skip span (0 = no open span); only
  /// tracked when the profiler or recorder is on.
  u64 ff_span_len_{0};
  /// Per-device bitmask of links whose dead-escalation event has been
  /// recorded (LinkProtoState itself is checkpointed and must not grow a
  /// bookkeeping field).
  std::vector<u64> fr_dead_logged_;
  /// Chaos-orchestration engine (src/chaos/engine.cpp); created by init()
  /// when chaos_invariants != 0, by set_chaos_plan(), or by a checkpoint
  /// restore that carries a CHAO section.  The engine applies plan events
  /// and runs invariant checks from inside the clock loop, so it needs the
  /// same private access the stages have.
  std::unique_ptr<ChaosEngine> chaos_;
  friend class ChaosEngine;
};

/// Build a compliant, CRC-sealed memory request packet (paper Figure 4's
/// hmcsim_build_memrequest).  `link` lands in the SLID field so the device
/// can route the response back to the injection link.
[[nodiscard]] Status build_memrequest(u32 cub, PhysAddr addr, Tag tag,
                                      Command cmd, u32 link,
                                      std::span<const u64> payload,
                                      PacketBuffer& out);

/// Build a MODE_READ / MODE_WRITE register access request.  The register's
/// architected physical index rides in the ADRS field.
[[nodiscard]] Status build_moderequest(u32 cub, u32 phys_reg_index, Tag tag,
                                       bool write, u64 value, u32 link,
                                       PacketBuffer& out);

}  // namespace hmcsim
