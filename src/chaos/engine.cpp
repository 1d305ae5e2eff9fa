#include "chaos/engine.hpp"

#include <algorithm>
#include <sstream>

#include "core/device.hpp"
#include "core/link_layer.hpp"
#include "core/simulator.hpp"

namespace hmcsim {
namespace {

u32 clamp_u32(u64 v) {
  return v > 0xffffffffull ? 0xffffffffu : static_cast<u32>(v);
}

// True when `ev` needs the link retry protocol: link errors exist only
// there, and the structural link events act on its per-link state.
// Zero-valued and restore events re-arm the error-free defaults, so they
// (and with them `quiet` blocks) stay legal on any configuration.
bool needs_link_protocol(const ChaosEvent& ev) {
  switch (ev.action) {
    case ChaosAction::LinkErrorPpm:
      return !ev.restore && ev.a > 0;
    case ChaosAction::LinkBurst:
      return !ev.restore && ev.a > 1;
    case ChaosAction::LinkRetrain:
    case ChaosAction::KillLink:
    case ChaosAction::ReviveLink:
      return true;
    default:
      return false;
  }
}

}  // namespace

ChaosEngine::ChaosEngine(const DeviceConfig& baseline) : baseline_(baseline) {}

Status ChaosEngine::arm(ChaosPlan plan, const DeviceConfig& cfg,
                        std::string* diagnostic) {
  const auto fail = [&](const ChaosEvent& ev, const std::string& msg) {
    if (diagnostic) {
      *diagnostic = std::to_string(ev.line) + ": " + msg;
    }
    return Status::InvalidConfig;
  };
  for (const ChaosEvent& ev : plan.events) {
    if (!cfg.link_protocol && needs_link_protocol(ev)) {
      return fail(ev, std::string(to_string(ev.action)) + " " +
                          std::to_string(ev.a) +
                          " requires link_protocol = true");
    }
    switch (ev.action) {
      case ChaosAction::LinkRetrain:
      case ChaosAction::KillLink:
      case ChaosAction::ReviveLink:
        if (ev.a >= cfg.num_links) {
          return fail(ev, std::string(to_string(ev.action)) + " link " +
                              std::to_string(ev.a) + " out of range (" +
                              std::to_string(cfg.num_links) +
                              " links configured)");
        }
        break;
      case ChaosAction::VaultFail:
      case ChaosAction::VaultUnfail:
      case ChaosAction::Wedge:
      case ChaosAction::Unwedge:
        if (ev.a >= cfg.num_vaults()) {
          return fail(ev, std::string(to_string(ev.action)) + " vault " +
                              std::to_string(ev.a) + " out of range (" +
                              std::to_string(cfg.num_vaults()) +
                              " vaults configured)");
        }
        break;
      default:
        break;
    }
  }
  if (!plan_.empty()) {
    // A campaign is already armed (checkpoint restore).  Re-passing the
    // same plan is the resume idiom; a different plan would desynchronize
    // the checkpointed cursor.
    if (chaos_plan_crc(plan) == chaos_plan_crc(plan_)) return Status::Ok;
    if (diagnostic) {
      *diagnostic = "chaos plan does not match the checkpointed campaign";
    }
    return Status::InvalidConfig;
  }
  plan_ = std::move(plan);
  return Status::Ok;
}

void ChaosEngine::apply_due(Simulator& sim) {
  if (cursor_ >= plan_.events.size()) return;
  const Cycle now = sim.cycle_;
  bool any = false;
  while (cursor_ < plan_.events.size() &&
         plan_.events[cursor_].cycle <= now) {
    apply_event(sim, plan_.events[cursor_]);
    ++cursor_;
    ++events_applied_;
    any = true;
  }
  // An event mutated simulated state; the armed fast path (if any) must
  // re-prove its eligibility against the new state.
  if (any) sim.ff_invalidate();
}

void ChaosEngine::apply_event(Simulator& sim, const ChaosEvent& ev) {
  DeviceConfig& cfg = sim.config_.device;
  // Rate knobs mutate both the simulator's master config and every
  // device's copy: the per-device injectors read the device copy, and the
  // checkpoint CFG section serializes the master, so a restored run
  // resumes under the rates that were live at save time.
  const auto set_rate = [&](u32 DeviceConfig::*field, u32 value) {
    cfg.*field = value;
    for (auto& dev : sim.devices_) dev->mutable_config().*field = value;
  };
  switch (ev.action) {
    case ChaosAction::LinkErrorPpm:
      set_rate(&DeviceConfig::link_error_rate_ppm,
               ev.restore ? baseline_.link_error_rate_ppm : clamp_u32(ev.a));
      break;
    case ChaosAction::LinkBurst:
      set_rate(&DeviceConfig::link_error_burst_len,
               ev.restore ? baseline_.link_error_burst_len
                          : std::max<u32>(1, clamp_u32(ev.a)));
      break;
    case ChaosAction::LinkRetrain:
      for (auto& dev : sim.devices_) {
        LinkProtoState& st = dev->links[ev.a].proto;
        st.retrain_until = std::max(st.retrain_until, sim.cycle_ + ev.b);
      }
      break;
    case ChaosAction::KillLink:
      for (auto& dev : sim.devices_) dev->links[ev.a].proto.dead = true;
      break;
    case ChaosAction::ReviveLink:
      for (auto& dev : sim.devices_) {
        LinkProtoState& st = dev->links[ev.a].proto;
        st.dead = false;
        st.fail_count = 0;  // a revived link earns a fresh escalation budget
        // Its next death is a new escalation and traces LINK_FAILED again.
        sim.fr_dead_logged_[dev->id()] &= ~(u64{1} << ev.a);
      }
      break;
    case ChaosAction::DramSbePpm:
      set_rate(&DeviceConfig::dram_sbe_rate_ppm,
               ev.restore ? baseline_.dram_sbe_rate_ppm : clamp_u32(ev.a));
      break;
    case ChaosAction::DramDbePpm:
      set_rate(&DeviceConfig::dram_dbe_rate_ppm,
               ev.restore ? baseline_.dram_dbe_rate_ppm : clamp_u32(ev.a));
      break;
    case ChaosAction::VaultFail:
      for (auto& dev : sim.devices_) {
        dev->ras.failed_vaults |= u64{1} << ev.a;
      }
      break;
    case ChaosAction::VaultUnfail:
      for (auto& dev : sim.devices_) {
        dev->ras.failed_vaults &= ~(u64{1} << ev.a);
        dev->ras.vault_uncorrectable[ev.a] = 0;
      }
      break;
    case ChaosAction::Wedge:
      for (auto& dev : sim.devices_) {
        for (Cycle& busy : dev->vaults[ev.a].bank_busy_until) {
          busy = ~Cycle{0};
        }
      }
      break;
    case ChaosAction::Unwedge:
      for (auto& dev : sim.devices_) {
        for (Cycle& busy : dev->vaults[ev.a].bank_busy_until) busy = 0;
      }
      break;
    case ChaosAction::HostTimeout: {
      const u64 value = ev.restore ? ht_baseline_ : ev.a;
      ht_active_ = !ev.restore;
      ht_value_ = value;
      if (ht_hook_) ht_hook_(value);
      break;
    }
    case ChaosAction::BreakInvariant:
      // Test-only hook: corrupt one closed-form identity so the checker
      // and the shrinker can be exercised end to end.  Under the link
      // protocol the token-conservation ledger is corrupted; otherwise the
      // scrub accounting is (observable whenever scrubbing is configured).
      if (!sim.devices_.empty()) {
        Device& d0 = *sim.devices_.front();
        if (cfg.link_protocol) {
          d0.links[0].proto.tokens_debited += ev.a;
        } else {
          d0.stats.scrub_steps += ev.a;
        }
      }
      break;
  }
}

Cycle ChaosEngine::next_event_cycle() const {
  return cursor_ < plan_.events.size() ? plan_.events[cursor_].cycle
                                       : ~Cycle{0};
}

void ChaosEngine::check_cadence(Simulator& sim) {
  const u32 interval = sim.config_.device.chaos_invariants;
  if (violated_ || interval == 0) return;
  if (sim.cycle_ % interval != 0) return;
  ++invariant_checks_;
  run_checks(sim);
}

void ChaosEngine::fail(Simulator& sim, const char* invariant,
                       std::string detail) {
  violated_ = true;
  violation_.invariant = invariant;
  violation_.cycle = sim.cycle_;
  violation_.detail = std::move(detail);
  // Freeze for post-mortem exactly like the watchdog: close any open
  // fast-forward span, disarm the fast path, snapshot the machine.
  sim.ff_close_skip_span();
  sim.ff_armed_ = false;
  std::ostringstream os;
  os << "chaos invariant violation: " << violation_.invariant << " at cycle "
     << violation_.cycle << '\n'
     << "  " << violation_.detail << '\n'
     << sim.build_state_dump();
  report_ = os.str();
}

void ChaosEngine::run_checks(Simulator& sim) {
  const DeviceConfig& cfg = sim.config_.device;
  const Cycle now = sim.cycle_;
  for (const auto& dev_ptr : sim.devices_) {
    const Device& dev = *dev_ptr;
    if (cfg.link_protocol) {
      const i64 pool = resolved_link_tokens(cfg);
      for (u32 l = 0; l < cfg.num_links; ++l) {
        const LinkProtoState& st = dev.links[l].proto;
        const i64 in_flight = static_cast<i64>(st.tokens_debited) -
                              static_cast<i64>(st.tokens_returned);
        if (in_flight != pool - st.tokens) {
          std::ostringstream d;
          d << "dev " << dev.id() << " link " << l << ": debited "
            << st.tokens_debited << " - returned " << st.tokens_returned
            << " = " << in_flight << " but pool " << pool << " - tokens "
            << st.tokens << " = " << (pool - st.tokens);
          fail(sim, "link_token_identity", d.str());
          return;
        }
        if (st.tokens < 0 || st.tokens > pool) {
          std::ostringstream d;
          d << "dev " << dev.id() << " link " << l << ": tokens "
            << st.tokens << " outside [0, " << pool << "]";
          fail(sim, "link_token_bounds", d.str());
          return;
        }
        if (st.retry_buf_flits > cfg.link_retry_buffer_flits) {
          std::ostringstream d;
          d << "dev " << dev.id() << " link " << l << ": retry buffer holds "
            << st.retry_buf_flits << " FLITs, capacity "
            << cfg.link_retry_buffer_flits;
          fail(sim, "link_retry_buffer_bound", d.str());
          return;
        }
      }
    }
    for (u32 l = 0; l < cfg.num_links; ++l) {
      const LinkState& link = dev.links[l];
      if (link.rqst.size() > cfg.xbar_depth ||
          link.rsp.size() > cfg.xbar_depth) {
        std::ostringstream d;
        d << "dev " << dev.id() << " link " << l << ": rqst="
          << link.rqst.size() << " rsp=" << link.rsp.size()
          << " exceed xbar_depth " << cfg.xbar_depth;
        fail(sim, "queue_bound", d.str());
        return;
      }
    }
    if (dev.mode_rsp.size() > cfg.xbar_depth) {
      std::ostringstream d;
      d << "dev " << dev.id() << ": mode_rsp=" << dev.mode_rsp.size()
        << " exceeds xbar_depth " << cfg.xbar_depth;
      fail(sim, "queue_bound", d.str());
      return;
    }
    for (u32 v = 0; v < cfg.num_vaults(); ++v) {
      const VaultState& vault = dev.vaults[v];
      if (vault.rqst.size() > cfg.vault_depth ||
          vault.rsp.size() > cfg.vault_depth) {
        std::ostringstream d;
        d << "dev " << dev.id() << " vault " << v << ": rqst="
          << vault.rqst.size() << " rsp=" << vault.rsp.size()
          << " exceed vault_depth " << cfg.vault_depth;
        fail(sim, "queue_bound", d.str());
        return;
      }
    }
    if (cfg.scrub_interval_cycles != 0 && now != 0) {
      // Stage 6 runs a scrub step at every cycle c with c % interval == 0
      // and the fast-forward horizon never skips one, so after `now` cycles
      // the counter is an exact closed form of the clock.
      const u64 expected = (now - 1) / cfg.scrub_interval_cycles + 1;
      if (dev.stats.scrub_steps != expected) {
        std::ostringstream d;
        d << "dev " << dev.id() << ": scrub_steps " << dev.stats.scrub_steps
          << " != expected " << expected << " (interval "
          << cfg.scrub_interval_cycles << ", cycle " << now << ")";
        fail(sim, "scrub_accounting", d.str());
        return;
      }
    }
    if (cfg.refresh_interval_cycles != 0 && now != 0) {
      // Staggered per-vault offsets make the exact count vault-dependent;
      // the closed-form upper bound still catches runaway refresh storms.
      const u64 per_vault = (now - 1) / cfg.refresh_interval_cycles + 2;
      const u64 bound = u64{cfg.num_vaults()} * per_vault;
      if (dev.stats.refreshes > bound) {
        std::ostringstream d;
        d << "dev " << dev.id() << ": refreshes " << dev.stats.refreshes
          << " exceed bound " << bound;
        fail(sim, "refresh_bound", d.str());
        return;
      }
    }
    if (cfg.num_vaults() < 64 &&
        (dev.ras.failed_vaults >> cfg.num_vaults()) != 0) {
      std::ostringstream d;
      d << "dev " << dev.id() << ": failed_vaults 0x" << std::hex
        << dev.ras.failed_vaults << std::dec << " has bits past vault "
        << cfg.num_vaults() - 1;
      fail(sim, "vault_fail_mask", d.str());
      return;
    }
  }
  if (cfg.watchdog_cycles != 0 && !sim.watchdog_fired_ &&
      sim.watchdog_stall_cycles_ > cfg.watchdog_cycles) {
    std::ostringstream d;
    d << "stall count " << sim.watchdog_stall_cycles_
      << " ran past the watchdog threshold " << cfg.watchdog_cycles
      << " without firing";
    fail(sim, "watchdog_liveness", d.str());
    return;
  }
  if (host_probe_) {
    std::string msg;
    if (!host_probe_(&msg)) {
      fail(sim, "host_conservation", std::move(msg));
    }
  }
}

void ChaosEngine::set_host_timeout_hook(std::function<void(u64)> hook,
                                        u64 baseline) {
  ht_hook_ = std::move(hook);
  ht_baseline_ = baseline;
  // Checkpoint resume: a squeeze that was live at save time re-applies as
  // soon as the (re-created) driver wires itself back up.
  if (ht_active_ && ht_hook_) ht_hook_(ht_value_);
}

void ChaosEngine::set_host_probe(std::function<bool(std::string*)> probe) {
  host_probe_ = std::move(probe);
}

Status ChaosEngine::restore_progress(u64 cursor, u64 events_applied,
                                     u64 invariant_checks, bool ht_active,
                                     u64 ht_value) {
  if (cursor > plan_.events.size()) return Status::InvalidArgument;
  cursor_ = cursor;
  events_applied_ = events_applied;
  invariant_checks_ = invariant_checks;
  ht_active_ = ht_active;
  ht_value_ = ht_value;
  return Status::Ok;
}

void ChaosEngine::restore_baseline(u32 link_error_ppm, u32 link_burst,
                                   u32 dram_sbe, u32 dram_dbe) {
  baseline_.link_error_rate_ppm = link_error_ppm;
  baseline_.link_error_burst_len = link_burst;
  baseline_.dram_sbe_rate_ppm = dram_sbe;
  baseline_.dram_dbe_rate_ppm = dram_dbe;
}

void ChaosEngine::reset_progress() {
  cursor_ = 0;
  events_applied_ = 0;
  invariant_checks_ = 0;
  violated_ = false;
  violation_ = ChaosViolation{};
  report_.clear();
  ht_active_ = false;
  ht_value_ = 0;
}

}  // namespace hmcsim
