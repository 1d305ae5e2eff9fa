// RAS (reliability/availability/serviceability) helpers for Simulator:
// the DRAM fault model rolls, the background scrubber, vault degradation
// bookkeeping, and the forward-progress watchdog.
//
// Perf contract: every entry point here is behind a single config-gated
// branch in the clock engine, so with all RAS knobs at their defaults the
// per-cycle cost is ~0 (the `ras` row of bench/bench_overhead.cpp).
#include <algorithm>
#include <sstream>

#include "core/link_layer.hpp"
#include "core/simulator.hpp"
#include "mem/ecc.hpp"

namespace hmcsim {

void Simulator::inject_dram_fault(Device& dev, u32 vault_index, PhysAddr addr,
                                  usize bytes) {
  const DeviceConfig& cfg = dev.config();
  const u64 sbe = cfg.dram_sbe_rate_ppm;
  const u64 dbe = cfg.dram_dbe_rate_ppm;
  if ((sbe | dbe) == 0 || bytes < 8) return;
  // Each vault's accesses draw from its own generator, so one vault's fault
  // pattern does not depend on how much traffic the others retire.
  SplitMix64& rng = dev.vaults[vault_index].dram_rng;
  // One roll decides the access's fate: [0,sbe) plants a single-bit fault,
  // [sbe,sbe+dbe) a double-bit fault, the rest nothing.
  const u64 roll = rng.next_below(1'000'000);
  if (roll >= sbe + dbe) return;
  const u64 word_addr = addr + 8 * rng.next_below(bytes / 8);
  const u32 first = static_cast<u32>(rng.next_below(ecc::kCodewordBits));
  if (roll < sbe) {
    const u32 bits[1] = {first};
    (void)dev.store.plant_fault(word_addr, bits);
  } else {
    // Two distinct codeword positions: guaranteed detectable-uncorrectable.
    u32 second = static_cast<u32>(rng.next_below(ecc::kCodewordBits - 1));
    if (second >= first) ++second;
    const u32 bits[2] = {first, second};
    (void)dev.store.plant_fault(word_addr, bits);
  }
}

bool Simulator::ras_check_read(Device& dev, u32 vault_index, PhysAddr addr,
                               usize bytes) {
  // Transient fault on this access, then codec over the whole footprint —
  // which also discovers latent faults planted by earlier writes.
  inject_dram_fault(dev, vault_index, addr, bytes);
  const SparseStore::FaultSummary sum = dev.store.check_and_repair(addr, bytes);
  dev.stats.dram_sbes += sum.corrected;
  if (sum.corrected != 0) {
    trace(TraceEvent::RasSbe, 4, dev.id(), kNoCoord,
          dev.quad_of_vault(vault_index), vault_index, kNoCoord, addr, 0,
          Command::Null, sum.corrected);
  }
  if (sum.uncorrectable == 0) return false;
  dev.stats.dram_dbes += sum.uncorrectable;
  trace(TraceEvent::RasDbe, 4, dev.id(), kNoCoord,
        dev.quad_of_vault(vault_index), vault_index, kNoCoord, addr, 0,
        Command::Null, sum.uncorrectable);
  dev.ras.last_error_addr = addr;
  dev.ras.last_error_stat = static_cast<u8>(ErrStat::DramDbe);
  note_vault_uncorrectable(dev, vault_index);
  return true;
}

void Simulator::note_vault_uncorrectable(Device& dev, u32 vault_index) {
  const u32 threshold = dev.config().vault_fail_threshold;
  if (threshold == 0) return;
  // The failure bit doubles as the count-once guard: later errors on this
  // vault (in this cycle or after) find it already failed.  Stage 4 keeps
  // retiring from the vault for the rest of this cycle (it chose the vault
  // from the stage-start snapshot); the drain starts next cycle.
  if (++dev.ras.vault_uncorrectable[vault_index] >= threshold &&
      dev.vault_alive(vault_index)) {
    dev.ras.failed_vaults |= u64{1} << vault_index;
    ++dev.stats.vault_failures;
    trace(TraceEvent::ErrorResponse, 4, dev.id(), kNoCoord,
          dev.quad_of_vault(vault_index), vault_index, kNoCoord, 0, 0,
          Command::Error);
    trace(TraceEvent::VaultFailed, 4, dev.id(), kNoCoord,
          dev.quad_of_vault(vault_index), vault_index, kNoCoord, 0, 0,
          Command::Null, dev.ras.vault_uncorrectable[vault_index]);
  }
}

void Simulator::scrub_step(Device& dev) {
  const DeviceConfig& cfg = dev.config();
  const u64 capacity = dev.store.capacity();
  const u64 window =
      std::min<u64>(cfg.scrub_window_bytes, capacity - dev.ras.scrub_cursor);
  const SparseStore::FaultSummary sum =
      dev.store.scrub_span(dev.ras.scrub_cursor, window);
  ++dev.stats.scrub_steps;
  dev.stats.scrub_corrections += sum.corrected;
  if (sum.uncorrectable != 0) {
    // The scrubber retires the page (scrub_span rebuilt the word), so the
    // fault never reaches traffic — it is logged but not counted against
    // the vault-failure threshold, which tracks errors served to hosts.
    dev.stats.scrub_uncorrectables += sum.uncorrectable;
    dev.ras.last_error_addr = dev.ras.scrub_cursor;
    dev.ras.last_error_stat = static_cast<u8>(ErrStat::DramDbe);
  }
  dev.ras.scrub_cursor += window;
  if (dev.ras.scrub_cursor >= capacity) {
    dev.ras.scrub_cursor = 0;
    ++dev.ras.scrub_passes;
  }
}

void Simulator::drain_failed_vault(Device& dev, u32 vault_index) {
  // A failed vault retires nothing; its queued requests answer VAULT_FAILED
  // instead of wedging the pipeline.  Responses the vault produced before
  // failing still drain through stage 5 untouched.
  VaultState& vault = dev.vaults[vault_index];
  usize i = 0;
  while (i < vault.rqst.size()) {
    RequestEntry& entry = vault.rqst.at(i);
    if (entry.ready_cycle > cycle_) {
      ++i;
      continue;
    }
    // Staging space is bounded; retry the remainder next cycle when full.
    if (!emit_error_response(dev, entry, ErrStat::VaultFailed, 4)) return;
    ++dev.stats.degraded_drops;
    vault.rqst.remove(i);
  }
}

u64 Simulator::progress_fingerprint() const {
  // Any of these moving means the machine made forward progress: a packet
  // retired, hopped, retried, errored out, or crossed the host edge.
  // Scrub steps deliberately do not count — background scrubbing must not
  // mask a wedged pipeline.
  u64 f = 0;
  for (const auto& dev : devices_) {
    const DeviceStats& s = dev->stats;
    f += s.retired() + s.responses + s.error_responses + s.mode_ops +
         s.route_hops + s.link_retries + s.flow_packets + s.sends + s.recvs;
  }
  return f;
}

bool Simulator::check_watchdog(bool idle, u64 fingerprint) {
  if (idle) {
    watchdog_stall_cycles_ = 0;
    return false;
  }
  if (fingerprint != watchdog_fingerprint_) {
    watchdog_fingerprint_ = fingerprint;
    watchdog_stall_cycles_ = 0;
    return false;
  }
  // The watchdog is a whole-simulator condition (dev = kNoCoord): every
  // device's post-mortem window shows the transition.
  if (++watchdog_stall_cycles_ == 1) {
    // Stall onset: the watchdog is now counting toward the threshold.
    trace(TraceEvent::WatchdogArm, 0, kNoCoord, kNoCoord, kNoCoord, kNoCoord,
          kNoCoord, 0, 0, Command::Null, config_.device.watchdog_cycles);
  }
  if (watchdog_stall_cycles_ < config_.device.watchdog_cycles) return false;
  watchdog_fired_ = true;
  ff_close_skip_span();
  trace(TraceEvent::WatchdogFire, 0, kNoCoord, kNoCoord, kNoCoord, kNoCoord,
        kNoCoord, 0, 0, Command::Null, watchdog_stall_cycles_);
  watchdog_report_ = build_watchdog_report();
  return true;
}

std::string Simulator::build_watchdog_report() const {
  std::ostringstream os;
  os << "forward-progress watchdog fired at cycle " << cycle_ << " after "
     << watchdog_stall_cycles_ << " stalled cycles\n"
     << build_state_dump();
  return os.str();
}

// Post-mortem machine snapshot shared by the watchdog report and the chaos
// invariant-violation report (chaos/engine.cpp).
std::string Simulator::build_state_dump() const {
  std::ostringstream os;
  usize listed = 0;
  constexpr usize kMaxListed = 64;
  const auto list_request = [&](const char* where, u32 index,
                                const RequestEntry& e) {
    if (listed >= kMaxListed) return;
    ++listed;
    os << "    " << where << index << " tag=" << e.req.tag << " cmd=0x"
       << std::hex << static_cast<u32>(e.req.cmd) << " addr=0x" << e.req.addr
       << std::dec << " ready=" << e.ready_cycle << " retries="
       << static_cast<u32>(e.retries) << " inject=" << e.life.inject
       << " vault_arrive=" << e.life.vault_arrive << '\n';
  };
  const auto list_response = [&](const char* where, u32 index,
                                 const ResponseEntry& e) {
    if (listed >= kMaxListed) return;
    ++listed;
    os << "    " << where << index << " tag=" << e.tag << " cmd=0x" << std::hex
       << static_cast<u32>(e.cmd) << std::dec << " ready=" << e.ready_cycle
       << " retire=" << e.life.retire << '\n';
  };
  for (const auto& dev_ptr : devices_) {
    const Device& dev = *dev_ptr;
    os << "  dev " << dev.id() << ": retired=" << dev.stats.retired()
       << " responses=" << dev.stats.responses
       << " errors=" << dev.stats.error_responses
       << " failed_vaults=0x" << std::hex << dev.ras.failed_vaults << std::dec
       << " mode_rsp=" << dev.mode_rsp.size() << '\n';
    if (dev.config().link_protocol) {
      // Link-layer protocol state: a wedged machine is often a token leak,
      // a stuck replay, or a permanently retraining link — all visible here.
      const u32 pool = resolved_link_tokens(dev.config());
      for (u32 l = 0; l < dev.config().num_links; ++l) {
        const LinkProtoState& st = dev.links[l].proto;
        os << "  dev " << dev.id() << " link " << l << " proto:"
           << " tokens=" << st.tokens << '/' << pool
           << " debited=" << st.tokens_debited
           << " returned=" << st.tokens_returned
           << " retry_buf_flits=" << st.retry_buf_flits
           << " frp=" << static_cast<u32>(st.tx_frp)
           << " rrp=" << static_cast<u32>(st.rx_rrp)
           << " seq=" << static_cast<u32>(st.tx_seq) << '/'
           << static_cast<u32>(st.rx_seq)
           << " replay_pending=" << (st.replay_pending ? 1 : 0)
           << " fail_count=" << st.fail_count;
        if (st.retrain_until > cycle_) {
          os << " retraining_until=" << st.retrain_until;
        }
        if (st.dead) os << " DEAD";
        os << '\n';
      }
    }
    for (u32 l = 0; l < dev.config().num_links; ++l) {
      const LinkState& link = dev.links[l];
      if (link.rqst.empty() && link.rsp.empty()) continue;
      os << "  dev " << dev.id() << " link " << l << ": rqst="
         << link.rqst.size() << " rsp=" << link.rsp.size() << '\n';
      for (const RequestEntry& e : link.rqst) list_request("link.rqst ", l, e);
      for (const ResponseEntry& e : link.rsp) list_response("link.rsp ", l, e);
    }
    for (u32 v = 0; v < dev.config().num_vaults(); ++v) {
      const VaultState& vault = dev.vaults[v];
      if (vault.rqst.empty() && vault.rsp.empty()) continue;
      os << "  dev " << dev.id() << " vault " << v << ": rqst="
         << vault.rqst.size() << " rsp=" << vault.rsp.size()
         << " bank_busy_until=[";
      for (usize b = 0; b < vault.bank_busy_until.size(); ++b) {
        os << (b == 0 ? "" : ",") << vault.bank_busy_until[b];
      }
      os << "]\n";
      for (const RequestEntry& e : vault.rqst) list_request("vault.rqst ", v, e);
      for (const ResponseEntry& e : vault.rsp) list_response("vault.rsp ", v, e);
    }
    for (const ResponseEntry& e : dev.mode_rsp) {
      list_response("mode_rsp ", dev.id(), e);
    }
  }
  if (listed >= kMaxListed) os << "  ... (listing truncated)\n";
  if (recorder_) {
    // Post-mortem tail: the last flight-recorder events leading up to the
    // stall.  The callers close any open fast-forward skip span and record
    // the WATCHDOG_FIRE event before building this report.
    os << "flight recorder tail:\n";
    recorder_->dump_text(os);
  }
  return os.str();
}

}  // namespace hmcsim
