#include "core/link_layer.hpp"

#include <algorithm>
#include <utility>

#include "common/bitops.hpp"
#include "packet/packet.hpp"

namespace hmcsim {

namespace {

// One fault-model roll for a transmission on the link.  Burst continuations
// consume no RNG draw (the burst is one wire event); a fresh hit arms
// `link_error_burst_len - 1` forced follow-on failures.  `seq_flavor`
// reports whether the corruption presents to the receiver as a SEQ
// discontinuity (odd rolls) or a CRC failure.
bool roll_corrupt(Device& dev, LinkProtoState& st, bool& seq_flavor) {
  const DeviceConfig& cfg = dev.config();
  seq_flavor = false;
  if (st.burst_remaining > 0) {
    --st.burst_remaining;
    return true;
  }
  if (cfg.link_error_rate_ppm == 0) return false;
  const u64 roll = dev.fault_rng.next_below(1'000'000);
  if (roll >= cfg.link_error_rate_ppm) return false;
  st.burst_remaining = cfg.link_error_burst_len - 1;
  seq_flavor = (roll & 1) != 0;
  return true;
}

// The receiver detected the corruption and drops into error-abort: it
// discards the FLITs, streams StartRetry IRTRYs for the whole retrain
// window, and the transmitter acknowledges with a PRET before holding the
// packet for replay.  The link transmits nothing else until the window
// elapses and the replay lands.
void enter_abort(Device& dev, LinkProtoState& st, RequestEntry&& entry,
                 Cycle cycle, bool seq_flavor) {
  const DeviceConfig& cfg = dev.config();
  if (seq_flavor) {
    ++dev.stats.link_seq_errors;
  } else {
    ++dev.stats.link_crc_errors;
  }
  ++dev.stats.link_abort_entries;
  dev.stats.link_irtry_tx += cfg.link_retry_latency;
  ++dev.stats.link_pret_tx;
  st.retrain_until = cycle + cfg.link_retry_latency;
  st.replay_pending = true;
  st.replay = std::move(entry);
}

// Stamp the link-layer tail fields (piggybacked RRP, the transmit FRP, the
// 3-bit SEQ, the packet's RTC), reseal the CRC, debit the token pool and
// retry-buffer space, and land the packet in the input queue.  The caller
// verified capacity, so the push cannot fail.  The receiver's SEQ check is
// folded in: injected SEQ errors are modelled in roll_corrupt, so an
// accepted transmission always matches rx_seq and both ends advance.
void accept(Device& dev, u32 link, RequestEntry&& entry) {
  LinkProtoState& st = dev.links[link].proto;
  const u32 flits = entry.pkt.flits;
  u64 tail = entry.pkt.tail();
  tail = deposit(tail, 0, 8, st.rx_rrp);
  tail = deposit(tail, 8, 8, st.tx_frp);
  tail = deposit(tail, 16, 3, st.tx_seq);
  tail = deposit(tail, 26, 3, std::min<u64>(flits, 7));
  entry.pkt.tail() = tail;
  seal_crc(entry.pkt);
  entry.req.rrp = st.rx_rrp;
  entry.req.frp = st.tx_frp;
  entry.req.seq = st.tx_seq;
  entry.req.rtc = static_cast<u8>(std::min<u32>(flits, 7));
  st.tx_seq = (st.tx_seq + 1) & 7;
  st.rx_seq = st.tx_seq;
  st.tx_frp = static_cast<u8>(st.tx_frp + flits);
  st.retry_buf_flits += flits;
  st.tokens -= flits;
  st.tokens_debited += flits;
  dev.stats.link_tokens_debited += flits;
  (void)dev.links[link].rqst.push(std::move(entry));
}

// The link lacks the tokens, the retry-buffer FLITs or the queue slot a
// transmission of `flits` FLITs needs.
bool lacks_room(const Device& dev, u32 link, u32 flits) {
  const LinkState& ls = dev.links[link];
  return ls.proto.tokens < static_cast<i64>(flits) ||
         ls.proto.retry_buf_flits + flits >
             dev.config().link_retry_buffer_flits ||
         ls.rqst.full();
}

}  // namespace

bool LinkLayer::refuse(Device& dev, u32 link, u32 flits, Cycle cycle) {
  if (!retraining(dev, link, cycle) && !lacks_room(dev, link, flits)) {
    return false;
  }
  ++dev.stats.link_token_stalls;
  return true;
}

LinkArrival LinkLayer::arrive(Device& dev, u32 link, RequestEntry& entry,
                              Cycle cycle) {
  LinkProtoState& st = dev.links[link].proto;
  if (st.dead) return LinkArrival::Dead;
  if (refuse(dev, link, entry.pkt.flits, cycle)) return LinkArrival::TokenStall;
  bool seq_flavor = false;
  if (roll_corrupt(dev, st, seq_flavor)) {
    enter_abort(dev, st, std::move(entry), cycle, seq_flavor);
    return LinkArrival::Corrupted;
  }
  accept(dev, link, std::move(entry));
  return LinkArrival::Accepted;
}

bool LinkLayer::step_replay(Device& dev, u32 link, Cycle cycle,
                            RequestEntry& failed) {
  LinkState& ls = dev.links[link];
  LinkProtoState& st = ls.proto;
  const DeviceConfig& cfg = dev.config();
  if (!st.replay_pending || st.dead) return false;
  if (cycle < st.retrain_until || link_in_stuck_retrain(cfg, cycle)) {
    return false;
  }
  // The replay needs the same resources a fresh transmission would; stay
  // pending (without consuming a retry) until they free up.
  const u32 flits = st.replay.pkt.flits;
  if (lacks_room(dev, link, flits)) {
    ++dev.stats.link_token_stalls;
    return false;
  }
  RequestEntry entry = std::move(st.replay);
  st.replay = RequestEntry{};
  st.replay_pending = false;
  // Re-validate the stored copy before replaying it.  A corrupt
  // retry-buffer image must die as a CRC failure, not be silently
  // re-injected into the pipeline.
  if (!check_crc(entry.pkt)) {
    failed = std::move(entry);
    return true;
  }
  ++entry.retries;
  ++dev.stats.link_retries;
  dev.stats.link_replayed_flits += flits;
  bool seq_flavor = false;
  if (roll_corrupt(dev, st, seq_flavor)) {
    if (entry.retries >= cfg.link_retry_limit) {
      // Retry budget exhausted: the packet dies and the link accrues one
      // failure toward dead-link escalation.
      ++st.fail_count;
      if (cfg.link_fail_threshold != 0 &&
          st.fail_count >= cfg.link_fail_threshold) {
        st.dead = true;
        ++dev.stats.link_failures;
      }
      failed = std::move(entry);
      return true;
    }
    enter_abort(dev, st, std::move(entry), cycle, seq_flavor);
    return false;
  }
  // Replay landed: the receiver leaves error-abort, confirming with a
  // stream of ClearError IRTRYs.
  dev.stats.link_irtry_tx += cfg.link_retry_latency;
  entry.ready_cycle = cycle + 1;
  accept(dev, link, std::move(entry));
  return false;
}

void LinkLayer::complete(Device& dev, u32 link, u32 flits, u8 frp) {
  LinkProtoState& st = dev.links[link].proto;
  st.rx_rrp = frp;
  st.retry_buf_flits =
      st.retry_buf_flits >= flits ? st.retry_buf_flits - flits : 0;
  st.tokens += flits;
  st.tokens_returned += flits;
  dev.stats.link_tokens_returned += flits;
  ++dev.stats.link_tret_tx;
}

bool LinkLayer::retraining(const Device& dev, u32 link, Cycle cycle) {
  const LinkProtoState& st = dev.links[link].proto;
  return st.replay_pending || link_in_stuck_retrain(dev.config(), cycle);
}

bool LinkLayer::quiescent(const Device& dev, Cycle /*cycle*/) {
  const DeviceConfig& cfg = dev.config();
  if (!cfg.link_protocol) return true;
  const i64 pool = resolved_link_tokens(cfg);
  for (const LinkState& ls : dev.links) {
    const LinkProtoState& st = ls.proto;
    if (st.replay_pending) return false;
    // Tokens away from the pool fixed point (or an occupied retry buffer)
    // mean FLITs in flight somewhere the fast path cannot see.
    if (st.tokens != pool || st.retry_buf_flits != 0) return false;
  }
  return true;
}

void LinkLayer::reset(const DeviceConfig& cfg, LinkProtoState& st) {
  st = LinkProtoState{};
  if (cfg.link_protocol) st.tokens = resolved_link_tokens(cfg);
}

}  // namespace hmcsim
