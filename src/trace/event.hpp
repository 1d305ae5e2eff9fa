// Trace event taxonomy (paper §IV.E).
//
// Every internal sub-cycle operation can be recorded: each record carries
// its *physical locality* (device / link / quad / vault / bank, with ~0
// meaning "not applicable") and the internal clock tick at which the event
// was raised, so entire application memory traces can be revisited and
// analyzed for accuracy, latency characteristics, bandwidth utilization and
// transaction efficiency.
//
// The event kinds after VaultArrival belong to no TraceLevel: sinks that
// follow the level never see them.  The flight recorder's ring records them
// whatever the level (profile/flight_recorder.hpp).
#pragma once

#include <optional>
#include <string_view>

#include "common/types.hpp"
#include "packet/command.hpp"

namespace hmcsim {

enum class TraceEvent : u8 {
  /// A vault request queue holds a packet whose bank collides with an
  /// earlier packet or a busy bank (sub-cycle stage 3).
  BankConflict,
  /// A crossbar arbiter could not forward a request (stages 1-2).  arg is
  /// the refusal kind: 0 = the peer link's reserve was full, 1 = the target
  /// vault's request queue was full, 2 = a cross-device forward bounced.
  XbarRqstStall,
  /// A crossbar response queue was full when a vault tried to register a
  /// response (stage 5).
  XbarRspStall,
  /// A request arrived on a link that is not co-located with the
  /// destination quadrant: a routed-latency penalty is paid (stages 1-2).
  LatencyPenalty,
  /// A packet's destination cube is unreachable from this device; an error
  /// response is generated (deliberate misconfiguration support).
  Misroute,
  /// A vault could not accept a response into its response queue and the
  /// request stayed queued (stage 4 backpressure; arg = refusal kind 3).
  VaultRspStall,
  /// A memory read request retired at a bank (stage 4).
  ReadRequest,
  /// A memory write request retired at a bank (stage 4).
  WriteRequest,
  /// A read-modify-write (atomic / bit-write) retired at a bank (stage 4).
  AtomicRequest,
  /// A MODE_READ / MODE_WRITE register access was performed (stage 4).
  ModeRequest,
  /// A registered custom (CMC) command retired at a bank (stage 4).
  CustomRequest,
  /// A response packet was registered with a crossbar response queue
  /// (stage 5).
  ResponseRegistered,
  /// An in-band error response was generated (ERRSTAT != 0).
  ErrorResponse,
  /// A packet was forwarded one hop toward another cube (chaining).
  RouteHop,
  /// Host-facing send accepted a packet into a crossbar request queue.
  PacketSend,
  /// Host-facing recv drained a packet from a crossbar response queue.
  PacketRecv,
  /// The crossbar arbiter routed a request into its destination vault
  /// request queue (stages 1-2): the lifecycle Xbar -> VaultQueue edge.
  VaultArrival,

  // ---- kinds of no level (arg carries the payload) -------------------------
  /// A receiver entered IRTRY error-abort (arg = the packet's tag).
  LinkIrtry,
  /// A stuck-link retraining window opened (arg = cycles left in it).
  LinkRetrain,
  /// A link escalated to dead (arg = its failure count).
  LinkFailed,
  /// Single-bit DRAM errors were corrected (arg = how many).
  RasSbe,
  /// Uncorrectable DRAM errors surfaced (arg = how many).
  RasDbe,
  /// A vault was dynamically marked failed (arg = its uncorrectable count).
  VaultFailed,
  /// First cycle of a no-progress streak (arg = the watchdog threshold).
  /// Concerns every device: dev is kNoCoord.
  WatchdogArm,
  /// The forward-progress watchdog tripped (arg = stalled cycles).
  /// Concerns every device: dev is kNoCoord.
  WatchdogFire,
  /// A fast-forward span ended at this cycle (arg = cycles skipped).
  FfSkipSpan,

  Count,
};

inline constexpr usize kTraceEventCount = static_cast<usize>(TraceEvent::Count);

/// A set of event kinds, one bit per TraceEvent.
using TraceMask = u32;
static_assert(kTraceEventCount <= 32, "TraceMask holds one bit per kind");

[[nodiscard]] constexpr TraceMask trace_bit(TraceEvent e) {
  return TraceMask{1} << static_cast<u32>(e);
}

[[nodiscard]] std::string_view to_string(TraceEvent e);

/// Sentinel for locality coordinates that do not apply to an event.
inline constexpr u32 kNoCoord = ~u32{0};

/// One trace record.  POD; sinks may retain millions of these.
struct TraceRecord {
  TraceEvent event{TraceEvent::Count};
  u8 stage{0};  ///< sub-cycle stage 1..6 that raised the event (0 = API edge)
  Cycle cycle{0};
  u32 dev{kNoCoord};
  u32 link{kNoCoord};
  u32 quad{kNoCoord};
  u32 vault{kNoCoord};
  u32 bank{kNoCoord};
  PhysAddr addr{0};
  Tag tag{0};
  Command cmd{Command::Null};
  /// Event-specific payload (tag, refusal kind, skipped cycles...).
  u64 arg{0};
};

/// Trace verbosity.  Higher levels strictly include lower ones.
enum class TraceLevel : u8 {
  Off = 0,      ///< nothing recorded
  Stalls = 1,   ///< stalls, conflicts, latency penalties, errors
  Events = 2,   ///< + every retired memory operation and response
  SubCycle = 3, ///< + per-hop routing and host send/recv edges
};

/// Minimum level at which each event class is recorded; nullopt for the
/// kinds no level includes.
[[nodiscard]] constexpr std::optional<TraceLevel> level_for(TraceEvent e) {
  switch (e) {
    case TraceEvent::BankConflict:
    case TraceEvent::XbarRqstStall:
    case TraceEvent::XbarRspStall:
    case TraceEvent::LatencyPenalty:
    case TraceEvent::Misroute:
    case TraceEvent::VaultRspStall:
    case TraceEvent::ErrorResponse:
      return TraceLevel::Stalls;
    case TraceEvent::ReadRequest:
    case TraceEvent::WriteRequest:
    case TraceEvent::AtomicRequest:
    case TraceEvent::ModeRequest:
    case TraceEvent::CustomRequest:
    case TraceEvent::ResponseRegistered:
      return TraceLevel::Events;
    case TraceEvent::RouteHop:
    case TraceEvent::PacketSend:
    case TraceEvent::PacketRecv:
    case TraceEvent::VaultArrival:
      return TraceLevel::SubCycle;
    default:
      return std::nullopt;
  }
}

/// The kinds a level-following sink receives at `level`.
[[nodiscard]] constexpr TraceMask level_mask(TraceLevel level) {
  TraceMask mask = 0;
  for (usize i = 0; i < kTraceEventCount; ++i) {
    const auto e = static_cast<TraceEvent>(i);
    const std::optional<TraceLevel> min = level_for(e);
    if (min && *min <= level) mask |= trace_bit(e);
  }
  return mask;
}

}  // namespace hmcsim
