// Spec-faithful link-layer reliability (HMC 1.0 §Link Retry / Flow Control).
//
// Every external link of a device carries the retry/flow-control machinery
// the specification mandates:
//
//   * a transmit retry buffer addressed by the 8-bit FRP (forward retry
//     pointer): every packet accepted onto the link occupies FLIT slots in
//     the buffer until the receiver's RRP (return retry pointer) — modelled
//     at the moment the packet leaves the receiver's input buffer —
//     deallocates them;
//   * token-based injection gating: the receiver's input buffer is a pool
//     of `link_tokens` FLIT credits.  A transmission debits its FLIT count
//     (RTC on the wire) and blocks at zero tokens instead of silently
//     overflowing the queue; credits return (TRET / piggybacked RTC) when
//     the receiver drains the packet onward;
//   * 3-bit SEQ continuity stamping on transmit and checking on receive;
//   * the error-abort state machine: on a CRC or SEQ failure the receiver
//     drops into error-abort, discards the corrupted FLITs, and streams
//     StartRetry IRTRYs; the transmitter answers with a PRET, replays the
//     packet from its retry buffer (re-validating the stored CRC, so a
//     corrupt retry-buffer image dies instead of being re-injected), and
//     the receiver clears the abort with ClearError IRTRYs.  The
//     exchange occupies the link for `link_retry_latency` cycles.
//
// The state for one link direction lives in `LinkProtoState`, owned by the
// RECEIVING device (the input-buffer side): the token pool, the expected
// SEQ, and a model of the upstream transmitter's retry buffer.  Stages 1-2
// mutate a link's state only while processing its owning device, and
// cross-device arrivals only from the outbox flush after every device of
// the stage has run, so one device's crossbar pass never sees another's
// arrivals from the same stage.
//
// Fault modes beyond the uniform per-packet ppm roll:
//   * burst errors (`link_error_burst_len`): one roll corrupts the next N
//     transmissions on the link;
//   * stuck link (`link_stuck_interval/window_cycles`): a periodic
//     retraining window during which the link backpressures — pure
//     arithmetic on the cycle counter, so an idle device stays
//     fast-forwardable through it;
//   * dead link (`link_fail_threshold`): after that many retry-exhaustion
//     escalations the link is marked dead and every queued or arriving
//     request is answered with a host-visible ERRSTAT=LINK_FAILED error,
//     mirroring the VAULT_FAILED degradation path.
//
// See docs/LINK_LAYER.md for the state machine diagram and knob table.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/device.hpp"

namespace hmcsim {

/// Outcome of an arrival attempt at a link's input buffer.
enum class LinkArrival : u8 {
  Accepted,    ///< packet entered the input buffer (tokens debited)
  TokenStall,  ///< insufficient tokens / retry-buffer space / retraining
  Corrupted,   ///< injected CRC/SEQ error; packet held for replay
  Dead,        ///< link is dead; caller answers LINK_FAILED
};

/// Resolved token pool size for one link (0 = auto from the queue depth).
[[nodiscard]] constexpr u32 resolved_link_tokens(const DeviceConfig& cfg) {
  return cfg.link_tokens != 0
             ? cfg.link_tokens
             : static_cast<u32>(cfg.xbar_depth) * 4;
}

/// True when the link sits inside a stuck-link retraining window at
/// `cycle`.  The window closes each interval: a fresh link starts trained
/// and first drops out after `interval - window` cycles.  Pure arithmetic —
/// no state — so idle devices fast-forward straight through the schedule.
[[nodiscard]] constexpr bool link_in_stuck_retrain(const DeviceConfig& cfg,
                                                   Cycle cycle) {
  return cfg.link_stuck_window_cycles != 0 &&
         cycle % cfg.link_stuck_interval_cycles >=
             cfg.link_stuck_interval_cycles - cfg.link_stuck_window_cycles;
}

class LinkLayer {
 public:
  /// Attempt to land `entry` in link `link`'s input buffer on `dev`.
  /// On Accepted the entry is SEQ/FRP-stamped (tail rewritten, CRC
  /// resealed), pushed, and consumed; tokens and retry-buffer FLITs are
  /// debited.  On Corrupted the entry moved into the link's replay slot
  /// (the transmitter's retry buffer) and the link entered error-abort.
  /// On TokenStall / Dead the entry is untouched and stays with the
  /// caller.  Never call when the protocol is off.
  static LinkArrival arrive(Device& dev, u32 link, RequestEntry& entry,
                            Cycle cycle);

  /// The token-stall condition, stated once: true, after counting a
  /// `link_token_stalls`, when the link is retraining or lacks the
  /// tokens, retry-buffer FLITs or queue slot for a `flits`-FLIT packet.
  /// arrive() asks it, and Simulator::send asks it before it decodes.
  static bool refuse(Device& dev, u32 link, u32 flits, Cycle cycle);

  /// Per-cycle transmitter step for one link, run from the owning device's
  /// crossbar stage: when the error-abort retrain window has elapsed,
  /// replay the held packet from the retry buffer (re-validating its
  /// stored CRC), re-rolling the fault model per replay.  Returns true
  /// when a replay exhausted its budget and `failed` now holds the dead
  /// packet (the caller answers CRC_FAILURE / escalates the link).
  static bool step_replay(Device& dev, u32 link, Cycle cycle,
                          RequestEntry& failed);

  /// Receiver-side completion: a packet of `flits` FLITs stamped with
  /// retry pointer `frp` left link `link`'s input buffer onward (vault
  /// push, mode handling, error response, or a committed cross-device
  /// hop).  Advances RRP, deallocates retry-buffer FLITs and returns the
  /// tokens (TRET).
  static void complete(Device& dev, u32 link, u32 flits, u8 frp);

  /// True when the link can make no transmission progress this cycle
  /// (error-abort retrain pending or stuck-link retraining window).
  [[nodiscard]] static bool retraining(const Device& dev, u32 link,
                                       Cycle cycle);

  /// Link-layer quiescence for the fast-forward proof: no replay pending,
  /// no retrain armed beyond `cycle`, and every non-dead token pool back
  /// at its fixed point.
  [[nodiscard]] static bool quiescent(const Device& dev, Cycle cycle);

  /// Reset one link's protocol state to power-on (full token pool).
  static void reset(const DeviceConfig& cfg, LinkProtoState& st);
};

}  // namespace hmcsim
