// The internal software representation of one HMC device (paper §IV.A).
//
// The structure hierarchy deliberately mirrors the physical package:
//
//   Device
//     ├── links[]     (external SERDES links; each with crossbar queues)
//     ├── quads[]     (locality domains; quad i is closest to link i)
//     │     └── vaults[4]
//     │           ├── request / response queues (the vault controller)
//     │           └── banks[] -> DRAMs (bank state + backing storage)
//     ├── register file (RW / RO / RWS configuration & status registers)
//     └── sparse backing store for DRAM contents
//
// `Device` is a data holder owned and driven by `Simulator`; the sub-cycle
// stage logic lives there because stages 1, 2 and 5 move packets *between*
// devices.  Members are public by design — this is the C struct hierarchy
// of the original simulator, kept intact for traceability to the paper.
#pragma once

#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "mem/address_map.hpp"
#include "mem/storage.hpp"
#include "packet/packet.hpp"
#include "queue/queue.hpp"
#include "reg/registers.hpp"
#include "trace/lifecycle.hpp"

namespace hmcsim {

struct CustomCommandDef;

/// A request packet in flight, decoded once at ingress.
struct RequestEntry {
  PacketBuffer pkt;
  RequestFields req;
  /// Non-null when req.cmd is a registered custom (CMC) command; points at
  /// the simulator's registration (resolved at ingress and after
  /// checkpoint restore).
  const CustomCommandDef* custom{nullptr};
  /// Earliest cycle any stage may act on this entry; every queue hop sets
  /// it to now+1 so a packet advances at most one stage per clock
  /// (paper §IV.C / Figure 3).
  Cycle ready_cycle{0};
  /// Host injection point, used to route the response back.
  u32 home_dev{0};
  u32 home_link{0};
  /// Link the packet entered the *current* device on.
  u32 ingress_link{0};
  /// The routed-latency penalty is paid (and traced) at most once.
  bool penalty_applied{false};
  /// Link-retry transmissions consumed by this packet (IRTRY protocol).
  u8 retries{0};
  /// Per-stage cycle stamps (lifecycle observability; see
  /// trace/lifecycle.hpp for the segment decomposition they feed).
  PacketLifecycle life{};
};

/// A response packet in flight.
struct ResponseEntry {
  PacketBuffer pkt;
  Cycle ready_cycle{0};
  u32 home_dev{0};
  u32 home_link{0};
  // Decoded essentials retained for tracing.
  Tag tag{0};
  Command cmd{Command::Null};
  /// Stamps inherited from the request at bank retire (life.retire != 0
  /// marks a response that actually traversed a vault; error and mode
  /// responses leave it zero and are excluded from lifecycle accounting).
  PacketLifecycle life{};
};

/// Link-layer reliability state for one link direction (HMC 1.0 retry /
/// token protocol; see core/link_layer.hpp).  Owned by the RECEIVING
/// device: the token pool models this device's input buffer, the tx_*
/// fields model the upstream transmitter's retry machinery.  Only used
/// when DeviceConfig::link_protocol is on; checkpoint v5 serializes it.
struct LinkProtoState {
  // Token flow control (FLIT credits of the input buffer).
  i64 tokens{0};           ///< credits the upstream transmitter holds
  u64 tokens_debited{0};   ///< lifetime FLITs debited on accept
  u64 tokens_returned{0};  ///< lifetime FLITs returned (TRET/piggyback)
  // Transmit retry buffer (upstream side), addressed by 8-bit FRP.
  u32 retry_buf_flits{0};  ///< FLITs awaiting RRP deallocation
  u8 tx_frp{0};            ///< next forward-retry-pointer slot
  u8 rx_rrp{0};            ///< last good FRP returned as RRP
  // 3-bit SEQ continuity.
  u8 tx_seq{0};            ///< next SEQ stamped on an accepted packet
  u8 rx_seq{0};            ///< next SEQ the receiver expects
  // Error-abort state machine.
  Cycle retrain_until{0};  ///< link blocked until this cycle (IRTRY exchange)
  bool replay_pending{false};  ///< a corrupted packet awaits replay
  RequestEntry replay;         ///< the transmitter's held copy
  u32 burst_remaining{0};  ///< forced failures left in the current burst
  u32 fail_count{0};       ///< retry exhaustions (toward link_fail_threshold)
  bool dead{false};        ///< escalated: all traffic answered LINK_FAILED
};

/// One external link and its crossbar arbitration queues.
struct LinkState {
  BoundedQueue<RequestEntry> rqst;  ///< host/peer -> vaults direction
  BoundedQueue<ResponseEntry> rsp;  ///< vaults -> host/peer direction
  /// Link-layer retry/token protocol state (quiescent unless
  /// DeviceConfig::link_protocol is on).
  LinkProtoState proto;
  /// FLITs the crossbar arbiter moved out of each queue (utilization
  /// accounting against the xbar_flits_per_cycle budget).
  u64 rqst_flits_forwarded{0};
  u64 rsp_flits_forwarded{0};
  /// Serialization budget accumulators: refilled by xbar_flits_per_cycle
  /// each clock (unused bandwidth does not bank beyond one cycle) and
  /// drawn down by forwarded packets.  A large packet may overdraw and
  /// then blocks the link until the debt is repaid — multi-cycle
  /// serialization of 2..9-FLIT packets.
  i64 rqst_budget{0};
  i64 rsp_budget{0};
};

/// Sentinel for "no row open" in VaultState::open_row.
inline constexpr u64 kNoOpenRow = ~u64{0};

/// One vault: controller queues plus per-bank timing state.
struct VaultState {
  BoundedQueue<RequestEntry> rqst;
  BoundedQueue<ResponseEntry> rsp;
  /// busy_until[bank] is the first cycle the bank is free again.
  std::vector<Cycle> bank_busy_until;
  /// Per-bank open row under RowPolicy::OpenPage (kNoOpenRow when closed).
  std::vector<u64> open_row;
  /// Deterministic DRAM fault-injection source for accesses retired by THIS
  /// vault, so one vault's fault pattern does not depend on the traffic
  /// other vaults retire.  Seeded from (fault_seed, device, vault);
  /// checkpointed since format v4, so it is simulated state.
  SplitMix64 dram_rng{0};
  /// The vault's bank-timing model (DeviceConfig::backend_for_vault,
  /// docs/BACKENDS.md).
  TimingBackend timing{TimingBackend::HmcDram};
  /// pcm_like's vault-wide write gap: the first cycle the next write may
  /// issue.  Stays 0 under the DRAM models.
  Cycle write_ok{0};

  /// True when the write gap holds an access that writes the bank (a
  /// write, an atomic or a custom command) at `now`.
  [[nodiscard]] bool write_throttled(bool writes, Cycle now) const {
    return writes && write_ok > now;
  }
  /// Charge the free `bank` for an access to `row` at `now` under the
  /// vault's model: set the bank's busy window, manage its row buffer and
  /// count row hits and misses, and open pcm_like's write gap.
  void charge_bank(const DeviceConfig& cfg, u32 bank, u64 row, bool writes,
                   Cycle now, DeviceStats& stats);
  /// Every bank goes offline until at least now + busy_cycles, and every
  /// open row closes.
  void refresh(Cycle now, u32 busy_cycles);
};

/// Per-device RAS runtime state: the error log the 0x2E register block
/// exposes, vault degradation tracking, and the scrubber cursor.
struct RasState {
  /// Bit i set: vault i is failed (statically via failed_vault_mask or
  /// dynamically after vault_fail_threshold uncorrectable errors).
  u64 failed_vaults{0};
  /// Uncorrectable DRAM errors served by each vault (toward the threshold).
  std::vector<u32> vault_uncorrectable;
  /// Next byte address the background scrubber checks (wraps at capacity).
  u64 scrub_cursor{0};
  /// Completed full-capacity scrub sweeps.
  u64 scrub_passes{0};
  /// Most recent error-response cause (address + raw ErrStat), for the
  /// RAS_LAST_* registers.  Zero until the first error.
  u64 last_error_addr{0};
  u8 last_error_stat{0};
};

class Device {
 public:
  Device(u32 cube_id, const DeviceConfig& config);
  /// Every queue reports into queue_pushes (and each vault queue into
  /// active_vaults) by address, so a Device stays where it was built.
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Reset queues, banks, registers and (optionally) memory contents to the
  /// power-on state.
  void reset(bool clear_memory = true);

  [[nodiscard]] u32 id() const { return id_; }
  [[nodiscard]] const DeviceConfig& config() const { return config_; }
  /// Chaos campaigns retarget fault-rate knobs mid-run (chaos/engine.cpp);
  /// everyone else treats the configuration as immutable after construction.
  [[nodiscard]] DeviceConfig& mutable_config() { return config_; }
  [[nodiscard]] const AddressMap& address_map() const { return map_; }

  [[nodiscard]] u32 quad_of_vault(u32 vault) const {
    return vault / spec::kVaultsPerQuad;
  }
  /// Link i is physically closest to quad i (paper §III.A / §IV.A).
  [[nodiscard]] u32 quad_of_link(u32 link) const { return link; }

  // Structure hierarchy (public: see file comment).
  std::vector<LinkState> links;
  std::vector<VaultState> vaults;
  /// Staging queue for MODE_READ/MODE_WRITE responses generated at the
  /// crossbar (register accesses never traverse a vault).
  BoundedQueue<ResponseEntry> mode_rsp;
  RegisterFile regs;
  SparseStore store;
  DeviceStats stats;
  /// Deterministic fault-injection source (link error model).
  SplitMix64 fault_rng{0};
  RasState ras;
  /// Pushes accepted by any queue above since construction.  Execution
  /// bookkeeping, not simulated state (never serialized or reset): the
  /// idle fast-forward engine reads it to notice a push between clocks.
  u64 queue_pushes{0};
  /// Bit v set: vault v may hold work.  Each vault queue sets its bit on
  /// every accepted push (through count_pushes_into, so a push through
  /// device(), a checkpoint restore or a chaos edit marks it too), and
  /// stage 5 clears it once both of the vault's queues are empty.  Stages
  /// 3-5 visit only these vaults; a stale bit costs one visit to an empty
  /// vault, which is a no-op.  Execution bookkeeping like queue_pushes:
  /// never serialized.
  u64 active_vaults{0};

  /// True when vault `v` is serving traffic (not marked failed).
  [[nodiscard]] bool vault_alive(u32 v) const {
    return (ras.failed_vaults >> v & 1) == 0;
  }

  /// True when no vault queue holds an entry.  Reads only the queues of
  /// the vaults in active_vaults.
  [[nodiscard]] bool vaults_idle() const;

 private:
  u32 id_;
  DeviceConfig config_;
  AddressMap map_;
};

}  // namespace hmcsim
