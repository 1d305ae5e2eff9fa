#include "core/simulator.hpp"

#include <algorithm>
#include <bit>

#include "core/link_layer.hpp"

namespace hmcsim {

// ---------------------------------------------------------------------------
// Packet builders (paper Figure 4).
// ---------------------------------------------------------------------------

Status build_memrequest(u32 cub, PhysAddr addr, Tag tag, Command cmd,
                        u32 link, std::span<const u64> payload,
                        PacketBuffer& out) {
  RequestFields f;
  f.cmd = cmd;
  f.addr = addr;
  f.tag = tag;
  f.cub = cub;
  f.slid = link;
  return encode_request(f, payload, out);
}

Status build_moderequest(u32 cub, u32 phys_reg_index, Tag tag, bool write,
                         u64 value, u32 link, PacketBuffer& out) {
  RequestFields f;
  f.cmd = write ? Command::ModeWrite : Command::ModeRead;
  f.addr = phys_reg_index;  // the register index rides in ADRS
  f.tag = tag;
  f.cub = cub;
  f.slid = link;
  if (write) {
    const u64 payload[2] = {value, 0};
    return encode_request(f, payload, out);
  }
  return encode_request(f, {}, out);
}

// ---------------------------------------------------------------------------
// Initialization.
// ---------------------------------------------------------------------------

Status Simulator::init(const SimConfig& config, Topology topo,
                       std::string* diagnostic) {
  Status s = config.validate(diagnostic);
  if (!ok(s)) return s;

  if (topo.num_devices() != config.num_devices ||
      topo.links_per_device() != config.device.num_links) {
    if (diagnostic) {
      *diagnostic = "topology device/link counts do not match the config";
    }
    return Status::InvalidConfig;
  }
  s = topo.validate(diagnostic);
  if (!ok(s)) return s;
  if (!topo.finalized()) {
    s = topo.finalize();
    if (!ok(s)) return s;
  }

  config_ = config;
  topo_ = std::move(topo);
  cycle_ = 0;
  watchdog_fired_ = false;
  watchdog_stall_cycles_ = 0;
  watchdog_fingerprint_ = 0;
  watchdog_report_.clear();
  cycles_skipped_ = 0;
  ff_armed_ = false;
  devices_.clear();
  root_devices_.clear();
  child_devices_.clear();
  wiring_.assign(config.num_devices, LinkWiring{});
  for (u32 d = 0; d < config.num_devices; ++d) {
    devices_.push_back(std::make_unique<Device>(d, config.device));
    if (topo_.is_root(CubeId{d})) {
      root_devices_.push_back(d);
    } else {
      child_devices_.push_back(d);
    }
    for (u32 l = 0; l < config.device.num_links; ++l) {
      switch (topo_.endpoint(CubeId{d}, LinkId{l}).kind) {
        case EndpointKind::Host:
          wiring_[d].host |= 1u << l;
          break;
        case EndpointKind::Device:
          wiring_[d].peer |= 1u << l;
          break;
        case EndpointKind::Unconnected:
          break;
      }
    }
  }

  // Size the stage working state once, so the hot loop never allocates.
  const u32 links = config.device.num_links;
  const u32 vaults = config.device.num_vaults();
  xbar_scratch_.resize(config.num_devices);
  for (auto& sc : xbar_scratch_) {
    sc.outbox.clear();
    sc.staged.assign(usize{config.num_devices} * links, 0);
  }
  xbar_free_.assign(usize{config.num_devices} * links, 0);
  failed_snapshot_.assign(config.num_devices, 0);
  // Vault v's refresh slot is staggered offset_v = v/vaults of the way
  // into the interval (every device alike): the call at cycle c refreshes
  // it when (c + offset_v) % interval == 0, the phase c % interval equal
  // to (interval - offset_v) % interval.  The due set groups the vaults by
  // that phase, once.
  refresh_due_.clear();
  if (const Cycle interval = config.device.refresh_interval_cycles;
      interval != 0) {
    for (u32 v = 0; v < vaults; ++v) {
      const Cycle offset = Cycle{v} * interval / vaults;
      const Cycle phase = offset == 0 ? 0 : interval - offset;
      const auto slot = std::ranges::lower_bound(refresh_due_, phase, {},
                                                 &RefreshSlot::phase);
      if (slot != refresh_due_.end() && slot->phase == phase) {
        slot->vaults |= u64{1} << v;
      } else {
        refresh_due_.insert(slot, RefreshSlot{phase, u64{1} << v});
      }
    }
  }
  bounce_mark_.assign(usize{config.num_devices} * links, 0);
  bounced_.clear();

  // Self-observation layer: all pure observation, so (like fast_forward)
  // these knobs never change simulated state or checkpoint bytes — the
  // observability axis of the differential harness proves it.
  profiler_.reset();
  telemetry_.reset();
  // Exactly one ring stays attached however often init() runs (a checkpoint
  // restore runs it too); the caller's own sinks stay attached.
  if (recorder_) tracer_.remove_sink(recorder_.get());
  recorder_.reset();
  if (config.device.self_profile) {
    profiler_ = std::make_unique<StageProfiler>(config.num_devices, vaults);
  }
  if (config.device.telemetry_interval_cycles != 0) {
    telemetry_ = std::make_unique<Telemetry>(config.num_devices);
  }
  if (config.device.flight_recorder_depth != 0) {
    recorder_ = std::make_shared<FlightRecorder>(
        config.num_devices, config.device.flight_recorder_depth);
    tracer_.add_sink(recorder_, FlightRecorder::kKinds);
  }
  ff_span_len_ = 0;
  fr_dead_logged_.assign(config.num_devices, 0);
  // Live invariant checking without a plan is a valid configuration (the
  // checker is useful against organic bugs, not only injected chaos); a
  // plan armed later through set_chaos_plan() creates the engine itself.
  chaos_.reset();
  if (config.device.chaos_invariants != 0) {
    chaos_ = std::make_unique<ChaosEngine>(config.device);
  }
  return Status::Ok;
}

Status Simulator::init_simple(const DeviceConfig& device,
                              std::string* diagnostic) {
  SimConfig config;
  config.num_devices = 1;
  config.device = device;
  Topology topo = make_simple(device.num_links, diagnostic);
  if (topo.num_devices() == 0) return Status::InvalidConfig;
  return init(config, std::move(topo), diagnostic);
}

void Simulator::reset(bool clear_memory) {
  for (auto& dev : devices_) dev->reset(clear_memory);
  cycle_ = 0;
  watchdog_fired_ = false;
  watchdog_stall_cycles_ = 0;
  watchdog_fingerprint_ = 0;
  watchdog_report_.clear();
  cycles_skipped_ = 0;
  ff_armed_ = false;
  if (profiler_) profiler_->reset();
  if (telemetry_) telemetry_->reset();
  if (recorder_) recorder_->clear();
  ff_span_len_ = 0;
  std::fill(fr_dead_logged_.begin(), fr_dead_logged_.end(), u64{0});
  if (chaos_) {
    chaos_->reset_progress();
    // Re-arm the baseline fault rates the campaign may have retargeted
    // (Device::reset keeps the construction-time config, which rate events
    // mutate in place).
    const DeviceConfig& base = chaos_->baseline();
    const auto restore_rate = [&](u32 DeviceConfig::*field) {
      config_.device.*field = base.*field;
      for (auto& dev : devices_) dev->mutable_config().*field = base.*field;
    };
    restore_rate(&DeviceConfig::link_error_rate_ppm);
    restore_rate(&DeviceConfig::link_error_burst_len);
    restore_rate(&DeviceConfig::dram_sbe_rate_ppm);
    restore_rate(&DeviceConfig::dram_dbe_rate_ppm);
  }
}

DeviceStats Simulator::total_stats() const {
  DeviceStats total;
  for (const auto& dev : devices_) total += dev->stats;
  return total;
}

bool Simulator::quiescent() const {
  for (const auto& dev : devices_) {
    if (!dev->mode_rsp.empty()) return false;
    for (const auto& link : dev->links) {
      if (!link.rqst.empty() || !link.rsp.empty()) return false;
      // A packet parked in a link's replay slot is still in flight.
      if (link.proto.replay_pending) return false;
    }
    if (!dev->vaults_idle()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Host-edge interface.
// ---------------------------------------------------------------------------

Status Simulator::send(u32 dev, u32 link, const PacketBuffer& packet) {
  if (!initialized() || dev >= devices_.size() ||
      link >= config_.device.num_links ||
      (wiring_[dev].host & (1u << link)) == 0) {
    return Status::InvalidArgument;
  }

  Device& d = *devices_[dev];
  const u8 raw_cmd = static_cast<u8>(extract(packet.header(), 0, 6));
  // A link that cannot take the packet refuses it before the decode and
  // its CRC check, moving exactly the counters a failed push or arrive
  // below would.  Flow packets never enter the queue and a dead link
  // answers LINK_FAILED, so neither is refused here.  (A malformed packet
  // offered to a full link therefore reads Stalled, not MalformedPacket.)
  if (!is_flow(static_cast<Command>(raw_cmd)) && !d.links[link].proto.dead &&
      (config_.device.link_protocol
           ? LinkLayer::refuse(d, link, packet.flits, cycle_)
           : d.links[link].rqst.refuse_if_full())) {
    ff_invalidate();
    ++d.stats.send_stalls;
    return Status::Stalled;
  }

  RequestEntry entry;
  entry.pkt = packet;
  if (const CustomCommandDef* custom = custom_.find(raw_cmd)) {
    const Status ds = decode_custom_request(packet, *custom, entry.req);
    if (!ok(ds)) return ds;
    entry.custom = custom;
  } else {
    // decode_request is the one structural and CRC check at host ingress.
    const Status ds = decode_request(packet, entry.req);
    if (!ok(ds)) return ds;
  }

  // Every path below mutates device state (a queue push or a stats
  // counter), so the idle fast path must re-prove eligibility.
  ff_invalidate();

  if (is_flow(entry.req.cmd)) {
    // Link-layer flow control terminates at the link interface.  Host
    // TRETs deliberately do not mint tokens — the simulator models both
    // ends of the credit loop itself, and an externally-minted credit
    // would break the conservation identity debited == returned +
    // in-flight.
    ++d.stats.flow_packets;
    if (config_.device.link_protocol && entry.req.cmd == Command::Irtry) {
      ++d.stats.link_irtry_rx;
    }
    return Status::Ok;
  }

  entry.ready_cycle = cycle_ + 1;
  entry.home_dev = dev;
  entry.home_link = link;
  entry.ingress_link = link;
  entry.life.inject = cycle_;
  const PhysAddr addr = entry.req.addr;
  const Tag tag = entry.req.tag;
  const Command cmd = entry.req.cmd;
  if (config_.device.link_protocol) {
    switch (LinkLayer::arrive(d, link, entry, cycle_)) {
      case LinkArrival::Corrupted:
        // Corrupted still counts as a successful injection: the wire event
        // is the link layer's to recover (replay) or escalate.
        trace(TraceEvent::LinkIrtry, 0, dev, link, kNoCoord, kNoCoord,
              kNoCoord, addr, tag, cmd, tag);
        break;
      case LinkArrival::Accepted:
        break;
      case LinkArrival::TokenStall:
        ++d.stats.send_stalls;
        return Status::Stalled;
      case LinkArrival::Dead:
        // Dead link: the host sees a deterministic LINK_FAILED error
        // response instead of a hang.
        if (!emit_error_response(d, entry, ErrStat::LinkFailed, 0)) {
          ++d.stats.send_stalls;
          return Status::Stalled;
        }
        break;
    }
  } else if (!d.links[link].rqst.push(std::move(entry))) {
    ++d.stats.send_stalls;
    return Status::Stalled;
  }
  ++d.stats.sends;
  trace(TraceEvent::PacketSend, 0, dev, link, kNoCoord, kNoCoord, kNoCoord,
        addr, tag, cmd);
  return Status::Ok;
}

Status Simulator::recv(u32 dev, u32 link, PacketBuffer& out) {
  if (!initialized() || dev >= devices_.size() ||
      link >= config_.device.num_links ||
      (wiring_[dev].host & (1u << link)) == 0) {
    return Status::InvalidArgument;
  }
  Device& d = *devices_[dev];
  BoundedQueue<ResponseEntry>& queue = d.links[link].rsp;
  if (queue.empty() || queue.front().ready_cycle > cycle_) {
    return Status::NoResponse;
  }
  // Draining a host response changes quiescence and the progress
  // fingerprint, both frozen into the armed fast path.  (The no-response
  // path above stays armed — polling drivers must not disarm every step.)
  ff_invalidate();
  ResponseEntry entry = queue.pop_front();
  out = entry.pkt;
  ++d.stats.recvs;
  trace(TraceEvent::PacketRecv, 0, dev, link, kNoCoord, kNoCoord, kNoCoord, 0,
        entry.tag, entry.cmd);
  // Close the lifecycle and hand the completed record to observers.  Only
  // responses that actually retired at a bank carry stamps; error and mode
  // responses stay out of lifecycle accounting.
  if (entry.life.retire != 0 && !lifecycle_observers_.empty()) {
    entry.life.drain = cycle_;
    for (auto& obs : lifecycle_observers_) obs->complete(entry.life);
  }
  return Status::Ok;
}

// ---------------------------------------------------------------------------
// Side-band register access (outside the clock domains).
// ---------------------------------------------------------------------------

Status Simulator::register_custom_command(u8 raw_cmd, CustomCommandDef def) {
  if (!initialized()) return Status::InvalidArgument;
  // Registration while packets are in flight could leave entries with a
  // stale decode; require quiescence (the natural time to configure).
  if (!quiescent()) return Status::InvalidConfig;
  ff_invalidate();
  return custom_.define(raw_cmd, std::move(def));
}

Status Simulator::read_register_live(const Device& dev, u32 phys_index,
                                     u64& value) const {
  const auto reg = reg_from_phys(phys_index);
  if (reg && dev.regs.present(*reg)) {
    switch (*reg) {
      case Reg::Feat: {
        // Geometry word: capacity-GB[7:0] | links[11:8] | banks[19:12] |
        // vaults[27:20].
        const DeviceConfig& cfg = dev.config();
        value = (cfg.derived_capacity() >> 30) |
                (u64{cfg.num_links} << 8) |
                (u64{cfg.banks_per_vault} << 12) |
                (u64{cfg.num_vaults()} << 20);
        return Status::Ok;
      }
      case Reg::Err:
        // Cumulative error responses; injected link errors in the high
        // word so hosts can split protocol faults from link faults.
        value = dev.stats.error_responses |
                (dev.stats.link_errors << 32);
        return Status::Ok;
      case Reg::Ibtc0: case Reg::Ibtc1: case Reg::Ibtc2: case Reg::Ibtc3:
      case Reg::Ibtc4: case Reg::Ibtc5: case Reg::Ibtc6: case Reg::Ibtc7: {
        // Live input-buffer token count: free request-queue slots.
        const usize link = static_cast<usize>(*reg) -
                           static_cast<usize>(Reg::Ibtc0);
        value = dev.links[link].rqst.free_slots();
        return Status::Ok;
      }
      // RAS error-log block (0x2E): live views of the DRAM fault domain,
      // scrubber and degradation state.
      case Reg::RasSbe:
        value = dev.stats.dram_sbes | (dev.stats.scrub_corrections << 32);
        return Status::Ok;
      case Reg::RasDbe:
        value = dev.stats.dram_dbes | (dev.stats.scrub_uncorrectables << 32);
        return Status::Ok;
      case Reg::RasScrub:
        value = (dev.ras.scrub_cursor / SparseStore::kPageBytes) |
                (dev.ras.scrub_passes << 32);
        return Status::Ok;
      case Reg::RasLastAddr:
        value = dev.ras.last_error_addr;
        return Status::Ok;
      case Reg::RasLastStat:
        value = dev.ras.last_error_stat;
        return Status::Ok;
      case Reg::RasVaultFail:
        value = dev.ras.failed_vaults | (dev.stats.vault_remaps << 32);
        return Status::Ok;
      case Reg::RasLinkRetry: {
        // Link retry protocol: replays[31:0] | abort-entries[47:32] |
        // dead-link bitmask[55:48].
        u64 dead = 0;
        for (usize l = 0; l < dev.links.size(); ++l) {
          if (dev.links[l].proto.dead) dead |= u64{1} << l;
        }
        value = (dev.stats.link_retries & 0xffffffffull) |
                ((dev.stats.link_abort_entries & 0xffffull) << 32) |
                (dead << 48);
        return Status::Ok;
      }
      case Reg::RasLinkToken: {
        // Token flow control: stalls[31:0] | min-tokens-now[47:32].
        i64 min_tokens = 0;
        if (dev.config().link_protocol) {
          min_tokens = resolved_link_tokens(dev.config());
          for (const LinkState& l : dev.links) {
            min_tokens = std::min(min_tokens, l.proto.tokens);
          }
        }
        value = (dev.stats.link_token_stalls & 0xffffffffull) |
                ((static_cast<u64>(std::max<i64>(min_tokens, 0)) & 0xffffull)
                 << 32);
        return Status::Ok;
      }
      default:
        break;
    }
  }
  return dev.regs.read_phys(phys_index, value);
}

Status Simulator::jtag_reg_read(u32 dev, u32 phys_index, u64& value) const {
  if (!initialized() || dev >= devices_.size()) return Status::InvalidArgument;
  return read_register_live(*devices_[dev], phys_index, value);
}

Status Simulator::jtag_reg_write(u32 dev, u32 phys_index, u64 value) {
  if (!initialized() || dev >= devices_.size()) return Status::InvalidArgument;
  // An RWS write re-arms a pending self-clear, so the next clock edge is
  // no longer a no-op; the fast path must re-prove eligibility.
  ff_invalidate();
  return devices_[dev]->regs.write_phys(phys_index, value);
}

// ---------------------------------------------------------------------------
// Clock engine.
// ---------------------------------------------------------------------------

void Simulator::clock() {
  // Once the watchdog has tripped — or a chaos invariant check has failed —
  // the machine is frozen for post-mortem inspection; further clocks are
  // refused.
  if (watchdog_fired_) return;
  if (chaos_) {
    if (chaos_->violated()) return;
    // Chaos events apply before any dispatch so they land at their exact
    // cycle on the staged and the fast-forward path alike (the fast path
    // advances one cycle per clock() and an applied event invalidates it).
    chaos_->apply_due(*this);
  }
  // Idle fast-forward: when the device set is provably idle, advance time
  // without executing the stages.  Bit-identical to the staged path — see
  // ff_arm() for the eligibility proof and docs/INTERNALS.md for the
  // horizon construction.
  if (config_.device.fast_forward) {
    if (profiler_) {
      const u64 t0 = StageProfiler::now_ns();
      const bool skipped = (ff_armed_ || ff_arm()) && ff_fast_cycle();
      profiler_->add_stage(ProfileStage::FastForward,
                           StageProfiler::now_ns() - t0);
      if (skipped) return;
    } else if ((ff_armed_ || ff_arm()) && ff_fast_cycle()) {
      return;
    }
  }
  // The staged path is about to run: any open skip span ends here.
  if (ff_span_len_ != 0) ff_close_skip_span();
  if (profiler_) {
    profiler_->note_staged_cycle();
    u64 t0 = StageProfiler::now_ns();
    stage1_child_xbar();
    u64 t1 = StageProfiler::now_ns();
    profiler_->add_stage(ProfileStage::Stage1Xbar, t1 - t0);
    stage2_root_xbar();
    t0 = StageProfiler::now_ns();
    profiler_->add_stage(ProfileStage::Stage2RootXbar, t0 - t1);
    stage3_and_4_vaults();
    t1 = StageProfiler::now_ns();
    profiler_->add_stage(ProfileStage::Stage34Vaults, t1 - t0);
    stage5_responses();
    t0 = StageProfiler::now_ns();
    profiler_->add_stage(ProfileStage::Stage5Responses, t0 - t1);
    stage6_clock_update();
    t1 = StageProfiler::now_ns();
    profiler_->add_stage(ProfileStage::Stage6Clock, t1 - t0);
  } else {
    stage1_child_xbar();
    stage2_root_xbar();
    stage3_and_4_vaults();
    stage5_responses();
    stage6_clock_update();
  }
  if (config_.device.watchdog_cycles != 0) {
    const bool idle = quiescent();
    check_watchdog(idle, idle ? 0 : progress_fingerprint());
  }
}

void Simulator::ff_close_skip_span() {
  if (ff_span_len_ == 0) return;
  if (profiler_) profiler_->note_skip_span();
  // Spans are global (the whole device set was idle): traced once, on
  // device 0.  cycle_ is the first cycle after the span.
  trace(TraceEvent::FfSkipSpan, 0, 0, kNoCoord, kNoCoord, kNoCoord, kNoCoord,
        0, 0, Command::Null, ff_span_len_);
  ff_span_len_ = 0;
}

bool Simulator::dump_flight_recorder(std::ostream& os) {
  if (!recorder_) return false;
  ff_close_skip_span();
  recorder_->dump_text(os);
  return true;
}

bool Simulator::dump_flight_recorder_chrome(std::ostream& os) {
  if (!recorder_) return false;
  ff_close_skip_span();
  recorder_->dump_chrome(os);
  return true;
}

void Simulator::sample_telemetry() {
  const DeviceConfig& cfg = config_.device;
  const i64 pool = cfg.link_protocol ? resolved_link_tokens(cfg) : 0;
  TelemetryRow row;
  row.cycle = cycle_;
  for (u32 d = 0; d < num_devices(); ++d) {
    const Device& dev = *devices_[d];
    for (u32 l = 0; l < cfg.num_links; ++l) {
      const LinkState& link = dev.links[l];
      telemetry_->sample(TelemetryTrack::XbarRqst, d, link.rqst.size());
      telemetry_->sample(TelemetryTrack::XbarRsp, d, link.rsp.size());
      row.link_rqst += link.rqst.size();
      row.link_rsp += link.rsp.size();
      if (cfg.link_protocol) {
        // Deficit view: 0 = full credit pool, pool-size = fully drawn.
        const i64 deficit = pool - link.proto.tokens;
        telemetry_->sample(TelemetryTrack::LinkTokens, d,
                           deficit > 0 ? static_cast<u64>(deficit) : 0);
        telemetry_->sample(TelemetryTrack::LinkRetryBuf, d,
                           link.proto.retry_buf_flits);
      }
    }
    for (const VaultState& vault : dev.vaults) {
      telemetry_->sample(TelemetryTrack::VaultRqst, d, vault.rqst.size());
      telemetry_->sample(TelemetryTrack::VaultRsp, d, vault.rsp.size());
      row.vault_rqst += vault.rqst.size();
      row.vault_rsp += vault.rsp.size();
    }
    row.mode_rsp += dev.mode_rsp.size();
    row.bank_conflicts += dev.stats.bank_conflicts;
    row.xbar_rqst_stalls += dev.stats.xbar_rqst_stalls;
    row.xbar_rsp_stalls += dev.stats.xbar_rsp_stalls;
    row.vault_rsp_stalls += dev.stats.vault_rsp_stalls;
    row.send_stalls += dev.stats.send_stalls;
  }
  telemetry_->add_row(row);
}

bool Simulator::ff_queues_idle() const {
  for (const auto& dev_ptr : devices_) {
    const Device& dev = *dev_ptr;
    if (!dev.mode_rsp.empty()) return false;
    for (u32 l = 0; l < config_.device.num_links; ++l) {
      const LinkState& link = dev.links[l];
      if (!link.rqst.empty()) return false;
      // A packet held for replay lives outside the queues but still has
      // a pending retrain-timer event the fast path cannot emulate.
      if (link.proto.replay_pending) return false;
      // Host-link responses are inert (stage 5 skips host links; only
      // recv() pops them, and recv() invalidates), so they do not block.
      if (!link.rsp.empty() && (wiring_[dev.id()].peer & (1u << l)) != 0) {
        return false;
      }
    }
    if (!dev.vaults_idle()) return false;
  }
  return true;
}

u64 Simulator::queue_pushes() const {
  u64 total = 0;
  for (const auto& dev : devices_) total += dev->queue_pushes;
  return total;
}

Simulator::RefreshDue Simulator::next_refresh() const {
  const Cycle interval = config_.device.refresh_interval_cycles;
  const Cycle phase = cycle_ % interval;
  // The first slot at or after the phase.  There is at most one slot per
  // vault, so a branch-free count beats a binary search here.
  usize next = 0;
  for (const RefreshSlot& slot : refresh_due_) next += slot.phase < phase;
  // Past the last slot of this interval: the first slot of the next one.
  if (next == refresh_due_.size()) {
    return {refresh_due_.front().phase + interval - phase,
            refresh_due_.front().vaults};
  }
  return {refresh_due_[next].phase - phase, refresh_due_[next].vaults};
}

namespace {

/// The first clock call at or after `now` whose post-increment count is a
/// multiple of `h`: the call a stage-6 cadence of period h dispatches in.
constexpr Cycle next_post_increment_multiple(Cycle now, Cycle h) {
  return (now + h) / h * h - 1;
}

}  // namespace

bool Simulator::ff_arm() {
  if (!ff_queues_idle()) return false;
  const DeviceConfig& cfg = config_.device;
  // A staged pass over an idle device still mutates per-cycle state; the
  // fast path arms only once every such mutation has reached its fixed
  // point, so skipping a cycle leaves exactly the bytes the stages would:
  //   * link budget refills  b = min(b, 0) + flits_per_cycle  are identity
  //     once b equals the refill quantum (reached within a cycle or two of
  //     the queues draining);
  //   * regs.clock_edge() is a no-op once no RWS self-clear is pending.
  const i64 steady = cfg.xbar_flits_per_cycle;
  for (const auto& dev_ptr : devices_) {
    const Device& dev = *dev_ptr;
    if (dev.regs.any_pending_self_clear()) return false;
    // Link-layer quiescence: token pools at their fixed point, no replay
    // or abort state pending.  (Stuck-link retraining windows are pure
    // arithmetic on the cycle counter and need no stop cycle.)
    if (!LinkLayer::quiescent(dev, cycle_)) return false;
    for (u32 l = 0; l < cfg.num_links; ++l) {
      const LinkState& link = dev.links[l];
      if (link.rqst_budget != steady) return false;
      // Response budgets refill only on device-to-device links (stage 5
      // never touches host links), so host-link rsp budgets sit at their
      // last value and need no check.
      if ((wiring_[dev.id()].peer & (1u << l)) != 0 &&
          link.rsp_budget != steady) {
        return false;
      }
    }
  }

  // Stop cycle: the first clock whose staged pass has an effect the fast
  // path does not emulate.  The call at cycle c runs a scrub step when
  // c % scrub_interval == 0, fires vault v's refresh when
  // (c + offset_v) % refresh_interval == 0, and takes a telemetry pass when
  // (c + 1) % telemetry_interval == 0 (stage 6 samples after the
  // increment).
  constexpr Cycle kNoStopCycle = ~Cycle{0};
  Cycle stop = kNoStopCycle;
  if (cfg.scrub_interval_cycles != 0) {
    const Cycle interval = cfg.scrub_interval_cycles;
    const Cycle rem = cycle_ % interval;
    stop = std::min(stop, rem == 0 ? cycle_ : cycle_ + (interval - rem));
  }
  // Telemetry must keep its cadence through a skip.  This shortens skip
  // spans when telemetry is on, but sampling reads state the skip leaves
  // frozen, so simulated bytes stay identical.
  if (telemetry_ && cfg.telemetry_interval_cycles != 0) {
    stop = std::min(stop,
                    next_post_increment_multiple(
                        cycle_, cfg.telemetry_interval_cycles));
  }
  if (cfg.refresh_interval_cycles != 0) {
    stop = std::min(stop, cycle_ + next_refresh().in);
  }
  if (chaos_) {
    // Pending plan events are event-horizon entries: the skip must hand
    // the clock at an event's cycle back to clock(), which applies it and
    // re-proves eligibility against the mutated state.
    stop = std::min(stop, chaos_->next_event_cycle());
    // Invariant-check cadence rides the stage-6 post-increment dispatch
    // like telemetry, so cadence cycles must execute staged — both to keep
    // the check count deterministic across execution modes and to detect a
    // violation at the same first cycle the staged path would.
    if (cfg.chaos_invariants != 0) {
      stop = std::min(stop, next_post_increment_multiple(
                                cycle_, cfg.chaos_invariants));
    }
  }
  if (stop <= cycle_) return false;  // this very call has a bounded event
  ff_stop_cycle_ = stop;
  ff_pushes_ = queue_pushes();

  // Freeze the watchdog's inputs: across fast cycles no queue changes and
  // no stat in the progress fingerprint moves (refresh/scrub cycles are
  // outside the skip), so quiescence and the fingerprint are invariant.
  if (cfg.watchdog_cycles != 0) {
    ff_quiescent_ = quiescent();
    ff_fingerprint_ = progress_fingerprint();
  }
  ff_plan_watchdog();
  ff_armed_ = true;
  return true;
}

void Simulator::ff_plan_watchdog() {
  // check_watchdog with frozen facts: quiescent, it zeroes the stall count
  // (a no-op once it is zero); stalled, it resets the count when the
  // fingerprint moved, traces WATCHDOG_ARM when the count becomes 1, trips
  // when it reaches the threshold, and otherwise only adds one.  So the
  // next cycle that must call it is known now.
  constexpr Cycle kNever = ~Cycle{0};
  const u32 threshold = config_.device.watchdog_cycles;
  const u32 stalled = watchdog_stall_cycles_;
  Cycle next = kNever;
  ff_stall_step_ = 0;
  if (threshold != 0 && ff_quiescent_) {
    if (stalled != 0) next = cycle_;
  } else if (threshold != 0) {
    ff_stall_step_ = 1;
    const bool counting = ff_fingerprint_ == watchdog_fingerprint_ &&
                          stalled != 0 && stalled < threshold;
    // The call that finds threshold - 1 stalled cycles trips.
    next = counting ? cycle_ + (threshold - 1 - stalled) : cycle_;
  }
  ff_horizon_ = std::min(ff_stop_cycle_, next);
}

bool Simulator::ff_fast_cycle() {
  // Tests (and embedders) may reach through device() and push queue
  // entries directly between clocks.  The queues were empty at arm time,
  // so an unchanged push count proves they still are; any push since, even
  // one already removed again, hands the clock back to the staged path.
  if (queue_pushes() != ff_pushes_) {
    ff_armed_ = false;
    return false;
  }
  // Short of the horizon a fast cycle only counts.  At it, either a
  // bounded event needs the staged path, or the watchdog steps in full.
  const bool at_horizon = cycle_ >= ff_horizon_;
  if (at_horizon && cycle_ >= ff_stop_cycle_) {
    ff_armed_ = false;
    return false;
  }
  ++cycle_;
  ++cycles_skipped_;
  if (profiler_ || tracer_.enabled(TraceEvent::FfSkipSpan)) {
    if (profiler_) profiler_->note_fast_cycle();
    ++ff_span_len_;
  }
  if (!at_horizon) {
    watchdog_stall_cycles_ += ff_stall_step_;
    return true;
  }
  // Host responses awaiting recv() keep quiescence false with a constant
  // fingerprint, so the stall count keeps climbing during a skip — and may
  // trip the watchdog mid-skip, freezing the machine exactly as the staged
  // path would.
  if (check_watchdog(ff_quiescent_, ff_fingerprint_)) {
    ff_armed_ = false;
  } else {
    ff_plan_watchdog();
  }
  return true;
}

void Simulator::stage1_child_xbar() { run_xbar_stage(child_devices_, 1); }

void Simulator::stage2_root_xbar() { run_xbar_stage(root_devices_, 2); }

void Simulator::run_xbar_stage(const std::vector<u32>& devs, u8 stage) {
  if (devs.empty()) return;
  const u32 links = config_.device.num_links;
  const bool multi_device = devices_.size() > 1;
  if (multi_device) {
    // Pre-stage capacity snapshot: the base against which every device
    // reserves cross-device forward slots.
    for (usize d = 0; d < devices_.size(); ++d) {
      for (u32 l = 0; l < links; ++l) {
        xbar_free_[d * links + l] =
            static_cast<u32>(devices_[d]->links[l].rqst.free_slots());
      }
    }
  }
  for (usize s = 0; s < devs.size(); ++s) {
    const u64 t0 = profiler_ ? StageProfiler::now_ns() : 0;
    XbarScratch& sc = xbar_scratch_[s];
    sc.outbox.clear();
    if (multi_device) std::fill(sc.staged.begin(), sc.staged.end(), 0u);
    process_xbar(*devices_[devs[s]], stage, sc);
    if (profiler_) {
      profiler_->add_device(stage == 1 ? ProfileStage::Stage1Xbar
                                       : ProfileStage::Stage2RootXbar,
                            devs[s], StageProfiler::now_ns() - t0);
    }
  }
  if (multi_device) flush_outboxes(devs, stage);
}

void Simulator::flush_outboxes(const std::vector<u32>& devs, u8 stage) {
  const u32 links = config_.device.num_links;
  for (usize s = 0; s < devs.size(); ++s) {
    XbarScratch& sc = xbar_scratch_[s];
    if (sc.outbox.empty()) continue;
    Device& src = *devices_[devs[s]];
    // process_xbar reserved against a per-source snapshot, so combined
    // staging from several sources can still overfill one destination.
    // Losers bounce back to the head of their source queue; a bounced
    // destination is marked so later same-destination forwards from this
    // source bounce too, preserving stream order.
    std::fill(bounce_mark_.begin(), bounce_mark_.end(), u8{0});
    bounced_.clear();
    for (StagedForward& fwd : sc.outbox) {
      const usize slot = usize{fwd.dst_dev} * links + fwd.dst_link;
      Device& peer = *devices_[fwd.dst_dev];
      const PhysAddr addr = fwd.entry.req.addr;
      const Tag tag = fwd.entry.req.tag;
      const Command cmd = fwd.entry.req.cmd;
      bool committed = false;  // the hop landed (or is the peer's to replay)
      bool consumed = false;   // the entry left this device for good
      if (bounce_mark_[slot] == 0 && !peer.links[fwd.dst_link].rqst.full()) {
        if (config_.device.link_protocol) {
          // The hop is a link transmission: it passes through the peer's
          // ingress reliability layer.  Capture the source-side retry
          // pointer before arrive() re-stamps the tail for the peer.
          const u8 src_frp = fwd.entry.req.frp;
          switch (LinkLayer::arrive(peer, fwd.dst_link, fwd.entry, cycle_)) {
            case LinkArrival::Corrupted:
              trace(TraceEvent::LinkIrtry, stage, fwd.dst_dev, fwd.dst_link,
                    kNoCoord, kNoCoord, kNoCoord, addr, tag, cmd, tag);
              [[fallthrough]];
            case LinkArrival::Accepted:
              // Either way the transmission left this device — a corrupted
              // hop is now the peer's error-abort machine's to recover.
              committed = consumed = true;
              LinkLayer::complete(src, fwd.src_link, fwd.flits, src_frp);
              break;
            case LinkArrival::TokenStall:
              break;  // bounce below
            case LinkArrival::Dead: {
              // The peer's ingress is dead: the packet dies here with a
              // host-visible LINK_FAILED (bounce when staging is full).
              if (emit_error_response(src, fwd.entry, ErrStat::LinkFailed,
                                      stage)) {
                LinkLayer::complete(src, fwd.src_link, fwd.flits, src_frp);
                consumed = true;
              }
              break;
            }
          }
        } else {
          (void)peer.links[fwd.dst_link].rqst.push(std::move(fwd.entry));
          committed = consumed = true;
        }
      }
      if (committed) {
        ++src.stats.route_hops;
        trace(TraceEvent::RouteHop, stage, src.id(), fwd.out_link, kNoCoord,
              kNoCoord, kNoCoord, addr, tag, cmd);
        src.links[fwd.src_link].rqst_flits_forwarded += fwd.flits;
      } else if (!consumed) {
        bounce_mark_[slot] = 1;
        ++src.stats.xbar_rqst_stalls;
        trace(TraceEvent::XbarRqstStall, stage, src.id(), fwd.src_link,
              kNoCoord, kNoCoord, kNoCoord, addr, tag, cmd,
              /*kind: cross-device bounce*/ 2);
        // Restore the ingress fields process_xbar rewrote for the
        // destination; the consumed link budget stays consumed (the wasted
        // transmission time is the cost of the lost arbitration).
        fwd.entry.ingress_link = fwd.src_ingress;
        fwd.entry.penalty_applied = fwd.src_penalty;
        bounced_.push_back(std::move(fwd));
      }
    }
    // Reinstate bounced entries at their source queue heads; reverse
    // iteration restores their original relative order.
    for (auto it = bounced_.rbegin(); it != bounced_.rend(); ++it) {
      src.links[it->src_link].rqst.push_front(std::move(it->entry));
    }
    bounced_.clear();
  }
}

bool Simulator::step_link_protocol(Device& dev, u32 link, u8 stage) {
  LinkState& link_state = dev.links[link];
  LinkProtoState& st = link_state.proto;
  if (st.dead) {
    // First sighting of the escalation: one LINK_FAILED event per death.
    // (LinkProtoState is checkpointed, so the logged bit lives simulator-
    // side in fr_dead_logged_; a chaos revive clears it.)
    if (tracer_.enabled(TraceEvent::LinkFailed) &&
        (fr_dead_logged_[dev.id()] >> link & 1) == 0) {
      fr_dead_logged_[dev.id()] |= u64{1} << link;
      trace(TraceEvent::LinkFailed, stage, dev.id(), link, kNoCoord, kNoCoord,
            kNoCoord, 0, 0, Command::Null, st.fail_count);
    }
    // Dead-link drain: every queued request was accepted (tokens debited)
    // before escalation, so completion returns its credits and the
    // conservation identity debited == returned + in-flight survives.
    while (!link_state.rqst.empty()) {
      RequestEntry& head = link_state.rqst.front();
      const u32 flits = head.pkt.flits;
      const u8 frp = head.req.frp;
      if (!emit_error_response(dev, head, ErrStat::LinkFailed, stage)) {
        break;  // staging full; drain the remainder next cycle
      }
      LinkLayer::complete(dev, link, flits, frp);
      (void)link_state.rqst.pop_front();
    }
    return false;
  }
  if (LinkLayer::retraining(dev, link, cycle_) &&
      (st.replay_pending || !link_state.rqst.empty())) {
    ++dev.stats.link_retrain_cycles;
    // Record the window-open edge only (a loaded retraining window can
    // last hundreds of cycles; one event per window keeps the ring useful).
    if (tracer_.enabled(TraceEvent::LinkRetrain) &&
        (cycle_ == 0 || !LinkLayer::retraining(dev, link, cycle_ - 1))) {
      trace(TraceEvent::LinkRetrain, stage, dev.id(), link, kNoCoord, kNoCoord,
            kNoCoord, 0, 0, Command::Null,
            st.retrain_until > cycle_ ? st.retrain_until - cycle_ : 0);
    }
  }
  if (st.replay_pending && !dev.mode_rsp.full()) {
    RequestEntry failed;
    if (LinkLayer::step_replay(dev, link, cycle_, failed)) {
      // Retry budget exhausted (or a corrupt retry-buffer copy): the packet
      // dies as a CRC failure.  The emit cannot fail — mode_rsp space was
      // checked before stepping the replay machine.
      (void)emit_error_response(dev, failed, ErrStat::CrcFailure, stage);
      ++dev.stats.link_errors;
    }
  }
  return true;
}

void Simulator::process_xbar(Device& dev, u8 stage, XbarScratch& sc) {
  const DeviceConfig& cfg = dev.config();
  for (u32 link = 0; link < cfg.num_links; ++link) {
    LinkState& link_state = dev.links[link];
    BoundedQueue<RequestEntry>& queue = link_state.rqst;
    // Refill the serialization budget; unused bandwidth does not bank
    // beyond one cycle.
    link_state.rqst_budget =
        std::min<i64>(link_state.rqst_budget, 0) + cfg.xbar_flits_per_cycle;
    if (cfg.link_protocol && !step_link_protocol(dev, link, stage)) {
      continue;  // dead link: the queue drains as LINK_FAILED errors
    }
    if (queue.empty()) continue;
    u64 blocked_vaults = 0;   // local vaults that must not be passed
    u32 blocked_links = 0;    // peer-forwarding links that are full
    bool mode_blocked = false;

    usize i = 0;
    while (i < queue.size() && link_state.rqst_budget > 0) {
      RequestEntry& entry = queue.at(i);
      const u32 cub = entry.req.cub;

      // ---- packets for other cubes: forward one hop ---------------------
      if (cub != dev.id()) {
        const std::span<const LinkId> hops =
            topo_.next_hops(CubeId{dev.id()}, CubeId{cub});
        if (hops.empty()) {
          // Nonexistent or unreachable cube: deliberate misconfiguration.
          // Count the misroute only when the error response actually lands
          // (a full staging queue retries next cycle).
          if (emit_error_response(dev, entry, ErrStat::Unroutable, stage)) {
            ++dev.stats.misroutes;
            trace(TraceEvent::Misroute, stage, dev.id(), link, kNoCoord,
                  kNoCoord, kNoCoord, entry.req.addr, entry.req.tag,
                  entry.req.cmd);
            link_state.rqst_budget -= entry.pkt.flits;
            if (cfg.link_protocol) {
              LinkLayer::complete(dev, link, entry.pkt.flits, entry.req.frp);
            }
            queue.remove(i);
            continue;
          }
          ++i;
          continue;
        }
        // Equal-cost multipath: the trunk link is chosen by a deterministic
        // hash of (ingress link, destination bank), so each link-to-bank
        // stream always rides one trunk and stays ordered while aggregate
        // traffic spreads across every parallel link.
        const u32 bank_hash = dev.address_map().in_range(entry.req.addr)
                                  ? dev.address_map().bank_of(entry.req.addr)
                                  : static_cast<u32>(entry.req.addr);
        const u32 out_link =
            hops[(entry.ingress_link * 7 + bank_hash) % hops.size()].get();
        if (entry.ready_cycle > cycle_ || (blocked_links & (1u << out_link))) {
          blocked_links |= 1u << out_link;
          ++i;
          continue;
        }
        const LinkEndpoint& e =
            topo_.endpoint(CubeId{dev.id()}, LinkId{out_link});
        // Two-phase forward: the destination queue belongs to another
        // device, so the actual push happens after every device of this
        // stage has run (flush_outboxes).  Capacity here is reserved
        // against the pre-stage free-slot snapshot minus this device's own
        // staged entries; over-commitment from several sources resolves at
        // the flush, which bounces losers back to this queue's head.
        const usize slot = usize{e.peer_dev} * cfg.num_links + e.peer_link;
        if (sc.staged[slot] >= xbar_free_[slot]) {
          ++dev.stats.xbar_rqst_stalls;
          trace(TraceEvent::XbarRqstStall, stage, dev.id(), link, kNoCoord,
                kNoCoord, kNoCoord, entry.req.addr, entry.req.tag,
                entry.req.cmd, /*kind: peer reserve full*/ 0);
          blocked_links |= 1u << out_link;
          ++i;
          continue;
        }
        ++sc.staged[slot];
        StagedForward fwd;
        fwd.entry = entry;  // copy; remove() below invalidates
        fwd.src_ingress = entry.ingress_link;
        fwd.src_penalty = entry.penalty_applied;
        fwd.entry.ready_cycle = cycle_ + 1;
        fwd.entry.ingress_link = e.peer_link;
        fwd.entry.penalty_applied = false;  // penalty is per-device locality
        fwd.src_link = link;
        fwd.out_link = out_link;
        fwd.dst_dev = e.peer_dev;
        fwd.dst_link = e.peer_link;
        fwd.flits = entry.pkt.flits;
        sc.outbox.push_back(std::move(fwd));
        // RouteHop accounting (route_hops, flits_forwarded, the trace
        // record) lands at the flush, when the hop actually commits.
        link_state.rqst_budget -= entry.pkt.flits;
        queue.remove(i);
        continue;
      }

      // ---- register access requests terminate at the crossbar ------------
      if (is_mode(entry.req.cmd)) {
        // The staging-space check precedes the register access: a full
        // queue must not re-execute the (side-effecting) operation when
        // the entry retries next cycle.
        if (entry.ready_cycle > cycle_ || mode_blocked ||
            dev.mode_rsp.full()) {
          mode_blocked = true;
          ++i;
          continue;
        }
        const u32 phys_index = static_cast<u32>(entry.req.addr);
        const bool read = entry.req.cmd == Command::ModeRead;
        u64 value[2] = {0, 0};
        const Status rs =
            read ? read_register_live(dev, phys_index, value[0])
                 : dev.regs.write_phys(phys_index,
                                       entry.pkt.payload().empty()
                                           ? 0
                                           : entry.pkt.payload()[0]);
        // Space was reserved above; the push cannot fail.
        if (ok(rs)) {
          (void)dev.mode_rsp.push(make_response(
              dev, entry,
              read ? Command::ModeReadResponse : Command::ModeWriteResponse,
              ErrStat::Ok, {value, read ? 2u : 0u}));
        } else {
          (void)dev.mode_rsp.push(make_response(dev, entry, Command::Error,
                                                ErrStat::RegisterFault));
          ++dev.stats.error_responses;
          trace(TraceEvent::ErrorResponse, stage, dev.id(), link, kNoCoord,
                kNoCoord, kNoCoord, entry.req.addr, entry.req.tag,
                entry.req.cmd);
        }
        ++dev.stats.mode_ops;
        trace(TraceEvent::ModeRequest, stage, dev.id(), link, kNoCoord,
              kNoCoord, kNoCoord, entry.req.addr, entry.req.tag,
              entry.req.cmd);
        link_state.rqst_flits_forwarded += entry.pkt.flits;
        link_state.rqst_budget -= entry.pkt.flits;
        if (cfg.link_protocol) {
          LinkLayer::complete(dev, link, entry.pkt.flits, entry.req.frp);
        }
        queue.remove(i);
        continue;
      }

      // ---- local memory requests: route to the destination vault ---------
      if (!dev.address_map().in_range(entry.req.addr)) {
        if (emit_error_response(dev, entry, ErrStat::InvalidAddress, stage)) {
          link_state.rqst_budget -= entry.pkt.flits;
          if (cfg.link_protocol) {
            LinkLayer::complete(dev, link, entry.pkt.flits, entry.req.frp);
          }
          queue.remove(i);
          continue;
        }
        ++i;
        continue;
      }
      u32 vault = dev.address_map().vault_of(entry.req.addr);

      // Degraded mode: traffic for a failed vault is remapped to its
      // partner (vault ^ 1) when configured and alive, else answered
      // VAULT_FAILED — never forwarded into a dead queue.
      bool remapped = false;
      if (dev.ras.failed_vaults != 0 && !dev.vault_alive(vault)) {
        const u32 partner = vault ^ 1;
        if (cfg.vault_remap && dev.vault_alive(partner)) {
          vault = partner;
          remapped = true;
        } else if (emit_error_response(dev, entry, ErrStat::VaultFailed,
                                       stage)) {
          ++dev.stats.degraded_drops;
          link_state.rqst_budget -= entry.pkt.flits;
          if (cfg.link_protocol) {
            LinkLayer::complete(dev, link, entry.pkt.flits, entry.req.frp);
          }
          queue.remove(i);
          continue;
        } else {
          ++i;
          continue;
        }
      }

      // Routed-latency penalty: the packet entered on a link that is not
      // co-located with the destination quadrant.  Pay it once per device.
      if (!entry.penalty_applied &&
          dev.quad_of_link(entry.ingress_link) != dev.quad_of_vault(vault)) {
        entry.penalty_applied = true;
        entry.ready_cycle =
            std::max(entry.ready_cycle, cycle_ + cfg.nonlocal_penalty_cycles);
        ++dev.stats.latency_penalties;
        trace(TraceEvent::LatencyPenalty, stage, dev.id(), link,
              dev.quad_of_vault(vault), vault, kNoCoord, entry.req.addr,
              entry.req.tag, entry.req.cmd);
      }

      if (entry.ready_cycle > cycle_ || (blocked_vaults & (u64{1} << vault))) {
        blocked_vaults |= u64{1} << vault;
        ++i;
        continue;
      }

      RequestEntry moved = entry;
      moved.ready_cycle = cycle_ + 1;
      moved.life.vault_arrive = cycle_;
      // Vault queues key each entry by its bank (read by stages 3 and 4).
      if (!dev.vaults[vault].rqst.push(std::move(moved),
                                       dev.address_map().bank_of(
                                           entry.req.addr))) {
        ++dev.stats.xbar_rqst_stalls;
        trace(TraceEvent::XbarRqstStall, stage, dev.id(), link,
              dev.quad_of_vault(vault), vault, kNoCoord, entry.req.addr,
              entry.req.tag, entry.req.cmd, /*kind: vault queue full*/ 1);
        blocked_vaults |= u64{1} << vault;
        ++i;
        continue;
      }
      if (remapped) ++dev.stats.vault_remaps;
      trace(TraceEvent::VaultArrival, stage, dev.id(), link,
            dev.quad_of_vault(vault), vault, kNoCoord, entry.req.addr,
            entry.req.tag, entry.req.cmd);
      link_state.rqst_flits_forwarded += entry.pkt.flits;
      link_state.rqst_budget -= entry.pkt.flits;
      if (cfg.link_protocol) {
        LinkLayer::complete(dev, link, entry.pkt.flits, entry.req.frp);
      }
      queue.remove(i);
    }
  }
}

void Simulator::scan_bank_conflicts(Device& dev, u32 vault_index) {
  const DeviceConfig& cfg = dev.config();
  const u32 window = cfg.conflict_window == 0
                         ? static_cast<u32>(cfg.vault_depth)
                         : cfg.conflict_window;
  VaultState& vault = dev.vaults[vault_index];
  if (vault.rqst.empty()) return;
  u32 seen_banks = 0;
  const usize limit = std::min<usize>(window, vault.rqst.size());
  for (usize i = 0; i < limit; ++i) {
    RequestEntry& entry = vault.rqst.at(i);
    if (entry.ready_cycle > cycle_) continue;
    const u32 bank = vault.rqst.key(i);
    const bool busy = vault.bank_busy_until[bank] > cycle_;
    const bool duplicated = (seen_banks & (1u << bank)) != 0;
    seen_banks |= 1u << bank;
    if (busy || duplicated) {
      if (entry.life.first_conflict == 0) {
        entry.life.first_conflict = cycle_;
      }
      ++dev.stats.bank_conflicts;
      trace(TraceEvent::BankConflict, 3, dev.id(), kNoCoord,
            dev.quad_of_vault(vault_index), vault_index, bank, entry.req.addr,
            entry.req.tag, entry.req.cmd);
    }
  }
}

void Simulator::stage3_and_4_vaults() {
  // Stage-start snapshot of the failure masks: vaults failed before this
  // stage skip it and drain below, after every live vault; a vault that
  // fails during the stage finishes its own pass first.
  for (usize d = 0; d < devices_.size(); ++d) {
    failed_snapshot_[d] = devices_[d]->ras.failed_vaults;
  }
  // Per-vault attribution is sampled 1 cycle in 16: two clock reads per
  // vault per cycle would dominate the profiler's own cost on many-vault
  // devices, and the per-vault table only needs relative weights.  The
  // sampling key is the deterministic cycle counter, never wall time.
  const bool time_vaults = profiler_ != nullptr && (cycle_ & 0xF) == 0;
  // One lookup per cycle finds the vaults whose staggered refresh slot is
  // this cycle; they are visited whether or not they hold work.
  u64 refreshing = 0;
  if (config_.device.refresh_interval_cycles != 0) {
    const RefreshDue due = next_refresh();
    if (due.in == 0) refreshing = due.vaults;
  }
  for (u32 d = 0; d < devices_.size(); ++d) {
    Device& dev = *devices_[d];
    // Only vaults that may hold work or refresh now, in ascending order as
    // a walk over every vault would take them: the trace stream depends on
    // that order.  No push during the walk marks a vault it skipped.
    for (u64 visit = dev.active_vaults | refreshing; visit != 0;
         visit &= visit - 1) {
      const u32 v = static_cast<u32>(std::countr_zero(visit));
      const u64 t0 = time_vaults ? StageProfiler::now_ns() : 0;
      // Stage 3 scans the vault's conflict window, failed vaults included;
      // stage 4 then retires from the same vault.
      scan_bank_conflicts(dev, v);
      if ((failed_snapshot_[d] >> v & 1) == 0) {
        process_vault(dev, v, (refreshing >> v & 1) != 0);
      }
      if (time_vaults) profiler_->add_vault(d, v, StageProfiler::now_ns() - t0);
    }
  }
  for (usize d = 0; d < devices_.size(); ++d) {
    Device& dev = *devices_[d];
    for (u64 failed = failed_snapshot_[d] & dev.active_vaults; failed != 0;
         failed &= failed - 1) {
      drain_failed_vault(dev, static_cast<u32>(std::countr_zero(failed)));
    }
  }
}

void Simulator::process_vault(Device& dev, u32 vault_index,
                              bool refresh_due) {
  const DeviceConfig& cfg = dev.config();
  VaultState& vault = dev.vaults[vault_index];

  // DRAM refresh: when this vault's (staggered) refresh slot comes due,
  // every bank goes offline for the refresh window and nothing retires.
  if (refresh_due) {
    vault.refresh(cycle_, cfg.refresh_busy_cycles);
    ++dev.stats.refreshes;
  }

  if (vault.rqst.empty()) return;

  // Only a bank head (its bank's oldest queued request) may retire, and
  // only while its bank is free: every later entry of a bank waits behind
  // its head, ready or not, and a busy bank serves nobody.  One pass over
  // the handle keys lists those heads in FIFO order, so no slot is read
  // for an entry that cannot retire.  The store is unconditional; only a
  // free head advances the count (hence the spare element).
  u32 heads[spec::kBanks16 + 1] = {};
  u32 listed = 0;
  u32 seen_banks = 0;
  for (usize i = 0; i < vault.rqst.size(); ++i) {
    const u32 bank = vault.rqst.key(i);
    const u32 first = ((seen_banks >> bank) & 1u) ^ 1u;
    seen_banks |= 1u << bank;
    heads[listed] = static_cast<u32>(i);
    listed += first & static_cast<u32>(vault.bank_busy_until[bank] <= cycle_);
  }

  const bool strict = cfg.vault_schedule == VaultSchedule::StrictFifo;
  u32 retired = 0;
  bool rsp_stalled_logged = false;
  for (u32 h = 0; h < listed; ++h) {
    if (cfg.vault_drain_limit != 0 && retired >= cfg.vault_drain_limit) break;
    // Each head retired ahead of this one moved it up a position.
    const usize i = heads[h] - retired;
    // Strict FIFO: nothing may pass the head, so the walk ends at the first
    // position that is not a free head or that did not retire.
    if (strict && i != 0) break;
    RequestEntry& entry = vault.rqst.at(i);
    if (entry.ready_cycle > cycle_) continue;  // not yet visible here
    const u32 bank = vault.rqst.key(i);
    // Atomics and custom commands run at the vault as read-modify-writes.
    const bool writes = entry.custom != nullptr ||
                        is_atomic(entry.req.cmd) || is_write(entry.req.cmd);
    // The bank is free; pcm_like's write gap may still hold a write.
    if (vault.write_throttled(writes, cycle_)) {
      ++dev.stats.pcm_write_throttle_stalls;
      continue;
    }
    // Non-posted requests need response queue space before they may retire.
    const bool entry_posted = entry.custom != nullptr
                                  ? entry.custom->response_flits == 0
                                  : is_posted(entry.req.cmd);
    if (!entry_posted && vault.rsp.full()) {
      ++dev.stats.vault_rsp_stalls;
      if (!rsp_stalled_logged) {
        trace(TraceEvent::VaultRspStall, 4, dev.id(), kNoCoord,
              dev.quad_of_vault(vault_index), vault_index, bank,
              entry.req.addr, entry.req.tag, entry.req.cmd,
              /*kind: vault rsp full*/ 3);
        rsp_stalled_logged = true;
      }
      continue;
    }
    if (!retire_request(dev, vault_index, entry)) continue;
    vault.charge_bank(cfg, bank, dev.address_map().row_of(entry.req.addr),
                      writes, cycle_, dev.stats);
    vault.rqst.remove(i);
    ++retired;
  }
}

bool Simulator::retire_request(Device& dev, u32 vault_index,
                               RequestEntry& entry) {
  const Command cmd = entry.req.cmd;
  const PhysAddr addr = entry.req.addr;
  const bool posted = entry.custom != nullptr
                          ? entry.custom->response_flits == 0
                          : is_posted(cmd);
  const usize bytes =
      entry.custom != nullptr ? entry.custom->access_bytes : access_bytes(cmd);
  VaultState& vault = dev.vaults[vault_index];
  const u32 bank = dev.address_map().bank_of(addr);

  // Range check against capacity for the full access footprint.
  if (addr + bytes > dev.store.capacity()) {
    if (!posted && !vault.rsp.push(make_response(dev, entry, Command::Error,
                                                 ErrStat::InvalidAddress))) {
      return false;
    }
    ++dev.stats.error_responses;
    trace(TraceEvent::ErrorResponse, 4, dev.id(), kNoCoord,
          dev.quad_of_vault(vault_index), vault_index, bank, addr,
          entry.req.tag, cmd);
    return true;
  }

  u64 data[spec::kMaxPayloadBytes / 8] = {};
  const DeviceConfig& cfg = dev.config();
  const bool model_data = cfg.model_data;
  // DRAM fault domain: active when rates are configured or latent faults
  // from earlier accesses are still outstanding.  One branch when off.
  const bool dram_ras = cfg.dram_sbe_rate_ppm != 0 ||
                        cfg.dram_dbe_rate_ppm != 0 ||
                        dev.store.fault_count() != 0;
  // Answer an uncorrectable DRAM error.  Posted operations have no response
  // channel; the error is logged and counted, the operation dropped.
  const auto poison_response = [&]() -> bool {
    if (posted) return true;
    if (!vault.rsp.push(make_response(dev, entry, Command::Error,
                                      ErrStat::DramDbe))) {
      return false;
    }
    ++dev.stats.error_responses;
    trace(TraceEvent::ErrorResponse, 4, dev.id(), kNoCoord,
          dev.quad_of_vault(vault_index), vault_index, bank, addr,
          entry.req.tag, cmd);
    return true;
  };

  // Registered custom (CMC) commands: read-modify-write of access_bytes
  // under the same bank timing, with a user-defined operation.
  if (entry.custom != nullptr) {
    const CustomCommandDef& def = *entry.custom;
    if (dram_ras && ras_check_read(dev, vault_index, addr, bytes)) {
      return poison_response();
    }
    if (model_data) (void)dev.store.read_words(addr, {data, bytes / 8});
    u64 rsp_payload[spec::kMaxPacketWords] = {};
    const usize rsp_words =
        def.response_flits > 0 ? (usize{def.response_flits} - 1) * 2 : 0;
    def.handler({data, bytes / 8}, entry.pkt.payload(),
                {rsp_payload, rsp_words});
    if (model_data) (void)dev.store.write_words(addr, {data, bytes / 8});
    ++dev.stats.custom_ops;
    dev.stats.bytes_read += bytes;
    dev.stats.bytes_written += bytes;
    trace(TraceEvent::CustomRequest, 4, dev.id(), entry.home_link,
          dev.quad_of_vault(vault_index), vault_index, bank, addr,
          entry.req.tag, cmd);
    if (posted) return true;

    const bool pushed = vault.rsp.push(make_response(
        dev, entry,
        def.response_flits > 1 ? Command::ReadResponse
                               : Command::WriteResponse,
        ErrStat::Ok, {rsp_payload, rsp_words}, vault_index));
    if (pushed) ++dev.stats.responses;
    return pushed;
  }

  if (is_read(cmd)) {
    if (dram_ras && ras_check_read(dev, vault_index, addr, bytes)) {
      return poison_response();
    }
    if (model_data) {
      (void)dev.store.read_words(addr, {data, bytes / 8});
    }
    ++dev.stats.reads;
    dev.stats.bytes_read += bytes;
    trace(TraceEvent::ReadRequest, 4, dev.id(), entry.home_link,
          dev.quad_of_vault(vault_index), vault_index, bank, addr,
          entry.req.tag, cmd);
  } else if (is_write(cmd)) {
    if (model_data) {
      (void)dev.store.write_words(addr, entry.pkt.payload());
    }
    // Latent fault: planted on write, discovered by a later read or the
    // background scrubber.
    if ((cfg.dram_sbe_rate_ppm | cfg.dram_dbe_rate_ppm) != 0) {
      inject_dram_fault(dev, vault_index, addr, bytes);
    }
    ++dev.stats.writes;
    dev.stats.bytes_written += bytes;
    trace(TraceEvent::WriteRequest, 4, dev.id(), entry.home_link,
          dev.quad_of_vault(vault_index), vault_index, bank, addr,
          entry.req.tag, cmd);
  } else if (is_atomic(cmd)) {
    if (dram_ras && ras_check_read(dev, vault_index, addr, bytes)) {
      return poison_response();
    }
    // All atomics are 16-byte read-modify-write operations.
    u64 current[2] = {0, 0};
    if (model_data) (void)dev.store.read_words(addr, current);
    const std::span<const u64> operand = entry.pkt.payload();
    u64 updated[2] = {current[0], current[1]};
    switch (cmd) {
      case Command::TwoAdd8:
      case Command::PostedTwoAdd8:
        updated[0] = current[0] + operand[0];
        updated[1] = current[1] + operand[1];
        break;
      case Command::Add16:
      case Command::PostedAdd16: {
        // 128-bit add with carry propagation.
        updated[0] = current[0] + operand[0];
        const u64 carry = (updated[0] < current[0]) ? 1 : 0;
        updated[1] = current[1] + operand[1] + carry;
        break;
      }
      case Command::BitWrite:
      case Command::PostedBitWrite:
        // 8 bytes of data + 8 bytes of mask: only masked bits change.
        updated[0] = (current[0] & ~operand[1]) | (operand[0] & operand[1]);
        break;
      default:
        break;
    }
    if (model_data) (void)dev.store.write_words(addr, updated);
    ++dev.stats.atomics;
    dev.stats.bytes_read += bytes;
    dev.stats.bytes_written += bytes;
    trace(TraceEvent::AtomicRequest, 4, dev.id(), entry.home_link,
          dev.quad_of_vault(vault_index), vault_index, bank, addr,
          entry.req.tag, cmd);
  } else {
    // Unsupported at a vault (flow/mode should never get here).
    if (!vault.rsp.push(make_response(dev, entry, Command::Error,
                                      ErrStat::InvalidCommand))) {
      return false;
    }
    ++dev.stats.error_responses;
    return true;
  }

  if (posted) return true;

  const Command rsp_cmd = response_command(cmd);
  const bool pushed = vault.rsp.push(make_response(
      dev, entry, rsp_cmd, ErrStat::Ok,
      {data, rsp_cmd == Command::ReadResponse ? bytes / 8 : 0}, vault_index));
  // Callers checked for space before retiring; a failure here is a bug.
  if (pushed) ++dev.stats.responses;
  return pushed;
}

ResponseEntry Simulator::make_response(const Device& dev,
                                       const RequestEntry& entry, Command cmd,
                                       ErrStat errstat,
                                       std::span<const u64> payload,
                                       u32 retired_in) const {
  ResponseFields rf;
  rf.cmd = cmd;
  rf.tag = entry.req.tag;
  rf.cub = dev.id();
  rf.slid = entry.req.slid;
  rf.errstat = errstat;
  ResponseEntry rsp;
  (void)encode_response(rf, payload, rsp.pkt);
  rsp.ready_cycle = cycle_ + 1;
  rsp.home_dev = entry.home_dev;
  rsp.home_link = entry.home_link;
  rsp.tag = entry.req.tag;
  rsp.cmd = cmd;
  if (retired_in != kNoCoord) {
    rsp.life = entry.life;
    rsp.life.retire = cycle_;
    rsp.life.dev = dev.id();
    rsp.life.vault = retired_in;
    rsp.life.link = entry.home_link;
    rsp.life.tag = entry.req.tag;
    rsp.life.cmd = entry.req.cmd;
  }
  return rsp;
}

bool Simulator::emit_error_response(Device& dev, const RequestEntry& entry,
                                    ErrStat errstat, u8 stage) {
  if (dev.mode_rsp.full()) return false;
  const bool pushed =
      dev.mode_rsp.push(make_response(dev, entry, Command::Error, errstat));
  if (pushed) {
    ++dev.stats.error_responses;
    dev.ras.last_error_addr = entry.req.addr;
    dev.ras.last_error_stat = static_cast<u8>(errstat);
    trace(TraceEvent::ErrorResponse, stage, dev.id(), kNoCoord, kNoCoord,
          kNoCoord, kNoCoord, entry.req.addr, entry.req.tag, entry.req.cmd);
  }
  return pushed;
}

// ---------------------------------------------------------------------------
// Stage 5: response registration, root devices first (paper §IV.C: child
// responses must not see falsely congested root queues).
// ---------------------------------------------------------------------------

u32 Simulator::response_exit_link(const Device& dev,
                                  const ResponseEntry& e) const {
  if (dev.id() == e.home_dev) return e.home_link;
  // Responses may arrive out of order (§V.C), so equal-cost trunk links are
  // balanced by occupancy rather than by stream hashing.
  const auto hops = topo_.next_hops(CubeId{dev.id()}, CubeId{e.home_dev});
  if (hops.empty()) return kNoCoord;
  u32 best = hops.front().get();
  usize best_size = dev.links[best].rsp.size();
  for (usize i = 1; i < hops.size(); ++i) {
    const u32 candidate = hops[i].get();
    const usize size = dev.links[candidate].rsp.size();
    if (size < best_size) {
      best = candidate;
      best_size = size;
    }
  }
  return best;
}

void Simulator::drain_response_queue(Device& dev,
                                     BoundedQueue<ResponseEntry>& queue,
                                     u32 vault_for_trace) {
  while (!queue.empty()) {
    ResponseEntry& head = queue.front();
    if (head.ready_cycle > cycle_) break;
    const u32 exit = response_exit_link(dev, head);
    if (exit == kNoCoord) {
      // The injection port is unreachable (topology was rewired mid-flight
      // or deliberately misconfigured): the response dies here.
      ++dev.stats.misroutes;
      trace(TraceEvent::Misroute, 5, dev.id(), kNoCoord, kNoCoord,
            vault_for_trace, kNoCoord, 0, head.tag, head.cmd);
      (void)queue.pop_front();
      continue;
    }
    ResponseEntry moved = head;
    moved.ready_cycle = cycle_ + 1;
    // The first crossbar registration (at the device that owns the vault)
    // closes the lifecycle Response segment; later hops keep the stamp.
    if (moved.life.retire != 0 && moved.life.rsp_register == 0) {
      moved.life.rsp_register = cycle_;
    }
    if (!dev.links[exit].rsp.push(std::move(moved))) {
      ++dev.stats.xbar_rsp_stalls;
      trace(TraceEvent::XbarRspStall, 5, dev.id(), exit, kNoCoord,
            vault_for_trace, kNoCoord, 0, head.tag, head.cmd);
      break;  // FIFO: later responses must not pass
    }
    trace(TraceEvent::ResponseRegistered, 5, dev.id(), exit, kNoCoord,
          vault_for_trace, kNoCoord, 0, head.tag, head.cmd);
    dev.links[exit].rsp_flits_forwarded += head.pkt.flits;
    (void)queue.pop_front();
  }
}

void Simulator::transfer_link_responses(Device& dev) {
  const DeviceConfig& cfg = dev.config();
  // Only device links, in ascending order: host links drain by recv.
  for (u32 peers = wiring_[dev.id()].peer; peers != 0; peers &= peers - 1) {
    const u32 link = static_cast<u32>(std::countr_zero(peers));
    const LinkEndpoint& ep = topo_.endpoint(CubeId{dev.id()}, LinkId{link});
    LinkState& link_state = dev.links[link];
    BoundedQueue<ResponseEntry>& queue = link_state.rsp;
    link_state.rsp_budget =
        std::min<i64>(link_state.rsp_budget, 0) + cfg.xbar_flits_per_cycle;
    while (!queue.empty() && link_state.rsp_budget > 0) {
      ResponseEntry& head = queue.front();
      if (head.ready_cycle > cycle_) break;
      Device& peer = *devices_[ep.peer_dev];
      const u32 peer_exit = response_exit_link(peer, head);
      if (peer_exit == kNoCoord) {
        ++dev.stats.misroutes;
        (void)queue.pop_front();
        continue;
      }
      ResponseEntry moved = head;
      moved.ready_cycle = cycle_ + 1;
      if (!peer.links[peer_exit].rsp.push(std::move(moved))) {
        ++dev.stats.xbar_rsp_stalls;
        trace(TraceEvent::XbarRspStall, 5, dev.id(), link, kNoCoord, kNoCoord,
              kNoCoord, 0, head.tag, head.cmd);
        break;
      }
      link_state.rsp_flits_forwarded += head.pkt.flits;
      link_state.rsp_budget -= head.pkt.flits;
      trace(TraceEvent::RouteHop, 5, dev.id(), link, kNoCoord, kNoCoord,
            kNoCoord, 0, head.tag, head.cmd);
      (void)queue.pop_front();
    }
  }
}

void Simulator::register_responses(Device& dev) {
  drain_response_queue(dev, dev.mode_rsp, kNoCoord);
  // Only vaults that may hold work, in ascending order as a walk over every
  // vault would take them: the link response FIFOs and the trace stream
  // depend on that order.  Stage 5 pushes into no vault queue, so a vault
  // whose queues are both empty now leaves the active set.
  for (u64 visit = dev.active_vaults; visit != 0; visit &= visit - 1) {
    const u32 v = static_cast<u32>(std::countr_zero(visit));
    VaultState& vault = dev.vaults[v];
    drain_response_queue(dev, vault.rsp, v);
    if (vault.rqst.empty() && vault.rsp.empty()) {
      dev.active_vaults &= ~(u64{1} << v);
    }
  }
  transfer_link_responses(dev);
}

void Simulator::stage5_responses() {
  // Root devices first, then children.
  for (const u32 d : root_devices_) register_responses(*devices_[d]);
  for (const u32 d : child_devices_) register_responses(*devices_[d]);
}

void Simulator::stage6_clock_update() {
  if (config_.device.scrub_interval_cycles != 0 &&
      cycle_ % config_.device.scrub_interval_cycles == 0) {
    for (auto& dev : devices_) scrub_step(*dev);
  }
  for (auto& dev : devices_) dev->regs.clock_edge();
  ++cycle_;
  if (telemetry_ && config_.device.telemetry_interval_cycles != 0 &&
      cycle_ % config_.device.telemetry_interval_cycles == 0) {
    sample_telemetry();
  }
  if (chaos_) chaos_->check_cadence(*this);
}

// ---------------------------------------------------------------------------
// Chaos orchestration (engine in src/chaos/engine.cpp).
// ---------------------------------------------------------------------------

Status Simulator::set_chaos_plan(ChaosPlan plan, std::string* diagnostic) {
  if (!initialized()) {
    if (diagnostic) *diagnostic = "simulator is not initialized";
    return Status::InvalidArgument;
  }
  if (!chaos_) chaos_ = std::make_unique<ChaosEngine>(config_.device);
  const Status s = chaos_->arm(std::move(plan), config_.device, diagnostic);
  if (ok(s)) ff_invalidate();  // the plan bounds the fast-forward horizon
  return s;
}

const std::string& Simulator::chaos_report() const {
  static const std::string kEmpty;
  return chaos_ ? chaos_->report() : kEmpty;
}

}  // namespace hmcsim
