#include "workload/driver.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "io/word_codec.hpp"

namespace hmcsim {

HostDriver::HostDriver(Simulator& sim, Generator& generator,
                       DriverConfig config)
    : sim_(sim), gen_(generator), cfg_(config) {
  const u32 cap = std::min<u32>(cfg_.max_outstanding_per_port, 512);
  for (const auto& hp : sim_.topology().host_ports()) {
    PortState port;
    port.dev = hp.dev;
    port.link = hp.link;
    port.free_tags.reserve(cap);
    // LIFO: tag (cap-1) is handed out first; ordering is arbitrary.
    for (u32 t = 0; t < cap; ++t) {
      port.free_tags.push_back(static_cast<u16>(t));
    }
    ports_.push_back(std::move(port));
  }
}

void HostDriver::drain_responses(DriverResult& result) {
  PacketBuffer pkt;
  for (auto& port : ports_) {
    while (ok(sim_.recv(port.dev, port.link, pkt))) {
      ResponseFields f;
      if (!ok(decode_response(pkt, f))) continue;  // cannot happen in-spec
      if (f.tag < port.inflight.size() && port.outstanding > 0) {
        InFlight& fl = port.inflight[f.tag];
        port.free_tags.push_back(f.tag);
        --port.outstanding;
        fl.deadline = 0;
        if (fl.zombie) {
          // The request already terminated host-side (timeout path); the
          // late response only releases the tag.
          fl.zombie = false;
          continue;
        }
        result.latency.add(sim_.now() - fl.sent_at);
      }
      if (f.cmd == Command::Error) ++result.errors;
      ++result.completed;
    }
  }
}

void HostDriver::check_timeouts(DriverResult& result) {
  const Cycle now = sim_.now();
  for (auto& port : ports_) {
    if (port.outstanding == 0) continue;
    for (InFlight& fl : port.inflight) {
      if (fl.deadline == 0 || fl.zombie || now < fl.deadline) continue;
      ++result.timeouts;
      fl.deadline = 0;
      fl.zombie = true;  // hold the tag until the response surfaces
      if (fl.attempts < cfg_.retry_limit) {
        const u32 shift = std::min<u32>(fl.attempts, 16);
        retry_queue_.push_back({fl.desc, fl.cub, fl.attempts + 1,
                                now + (cfg_.retry_backoff_cycles << shift)});
      } else {
        ++result.abandoned;
        ++result.completed;  // terminates as a host-side timeout
      }
    }
  }
}

HostDriver::PortState* HostDriver::pick_port(const RequestDesc& desc,
                                             u64 blocked_mask,
                                             usize& port_index) {
  if (ports_.empty()) return nullptr;
  if (cfg_.policy == InjectionPolicy::LocalityAware) {
    // Prefer the host port whose link index matches the destination quad
    // on the target device (link i is closest to quad i).
    const Device& dev = sim_.device(pending_cub_ < sim_.num_devices()
                                        ? pending_cub_
                                        : 0);
    const u32 vault = dev.address_map().in_range(desc.addr)
                          ? dev.address_map().vault_of(desc.addr)
                          : 0;
    const u32 quad = vault / spec::kVaultsPerQuad;
    for (usize i = 0; i < ports_.size(); ++i) {
      if (ports_[i].link == quad && !(blocked_mask & (u64{1} << i)) &&
          !ports_[i].free_tags.empty()) {
        port_index = i;
        return &ports_[i];
      }
    }
    // Fall through to round-robin when the preferred port cannot take it.
  }
  for (usize n = 0; n < ports_.size(); ++n) {
    const usize i = (rr_next_ + n) % ports_.size();
    if (!(blocked_mask & (u64{1} << i)) && !ports_[i].free_tags.empty()) {
      port_index = i;
      rr_next_ = (i + 1) % ports_.size();
      return &ports_[i];
    }
  }
  return nullptr;
}

void HostDriver::inject(DriverResult& result) {
  u64 blocked_mask = 0;  // ports that returned Stalled this cycle
  const u64 all_blocked = (u64{1} << ports_.size()) - 1;

  while (blocked_mask != all_blocked) {
    if (!have_pending_) {
      if (!retry_queue_.empty() &&
          retry_queue_.front().not_before <= sim_.now()) {
        const RetryEntry e = retry_queue_.front();
        retry_queue_.pop_front();
        pending_ = e.desc;
        pending_cub_ = e.cub;
        pending_attempts_ = e.attempts;
        pending_is_retry_ = true;
      } else if (result.sent < cfg_.total_requests) {
        pending_ = gen_.next();
        ++gen_calls_;
        pending_cub_ = cfg_.target_cub;
        if (cfg_.targets == TargetPolicy::RoundRobinCubes) {
          pending_cub_ = next_cube_;
          next_cube_ = (next_cube_ + 1) % sim_.num_devices();
        }
        pending_attempts_ = 0;
        pending_is_retry_ = false;
      } else {
        break;  // nothing sendable until a backoff expires
      }
      have_pending_ = true;
    }

    usize port_index = 0;
    PortState* port = pick_port(pending_, blocked_mask, port_index);
    if (port == nullptr) break;  // no free tags anywhere usable

    const u16 tag = port->free_tags.back();
    PacketBuffer pkt;
    u64 payload[spec::kMaxPayloadBytes / 8] = {};
    const usize payload_words = request_data_bytes(pending_.cmd) / 8;
    const Status bs = build_memrequest(pending_cub_, pending_.addr, tag,
                                       pending_.cmd, port->link,
                                       {payload, payload_words}, pkt);
    if (!ok(bs)) {
      // Generator produced an unencodable request; drop it.
      have_pending_ = false;
      continue;
    }
    const Status ss = sim_.send(port->dev, port->link, pkt);
    if (ss == Status::Stalled) {
      ++result.send_stalls;
      blocked_mask |= u64{1} << port_index;
      continue;  // keep the pending request; try another port
    }
    if (!ok(ss)) {
      // Unroutable by construction; skip it.  A retry still has to
      // terminate for conservation, so account it as abandoned.
      if (pending_is_retry_) {
        ++result.abandoned;
        ++result.completed;
      }
      have_pending_ = false;
      continue;
    }
    have_pending_ = false;
    if (is_posted(pending_.cmd)) {
      // A posted request never gets a response, so it completes here and
      // keeps no tag or in-flight slot; any tag value rides the wire.
      ++result.sent;
      ++result.completed;
      continue;
    }
    port->free_tags.pop_back();
    InFlight& fl = port->inflight[tag];
    fl.desc = pending_;
    fl.cub = pending_cub_;
    fl.attempts = pending_attempts_;
    fl.sent_at = sim_.now();
    fl.zombie = false;
    fl.deadline = cfg_.response_timeout_cycles != 0
                      ? sim_.now() + cfg_.response_timeout_cycles
                      : 0;
    ++port->outstanding;
    if (pending_is_retry_) {
      ++result.retries;
    } else {
      ++result.sent;
    }
  }
}

bool HostDriver::step(DriverResult& result) {
  if (ports_.empty() || result.completed >= cfg_.total_requests) {
    return false;
  }
  drain_responses(result);
  if (cfg_.response_timeout_cycles != 0) check_timeouts(result);
  inject(result);
  sim_.clock();
  result.cycles = sim_.now();
  // Host-tag occupancy rides the simulator's sampling cadence: one sample
  // per telemetry interval, on the same cycles the device queues sample.
  if (Telemetry* tel = sim_.telemetry()) {
    const u32 interval = sim_.config().device.telemetry_interval_cycles;
    if (interval != 0 && sim_.now() % interval == 0) {
      tel->sample_host_tags(outstanding_total());
    }
  }
  if (sim_.watchdog_fired()) {
    result.watchdog_fired = true;
    return false;
  }
  // A chaos invariant violation froze the machine; stop driving it so the
  // post-mortem state dump reflects the violating cycle.
  if (sim_.chaos_violated()) return false;
  if (cfg_.max_cycles != 0 && sim_.now() >= cfg_.max_cycles) {
    result.hit_cycle_cap = true;
    return false;
  }
  return result.completed < cfg_.total_requests;
}

DriverResult HostDriver::run() {
  DriverResult result;
  if (ports_.empty()) return result;

  while (step(result)) {
  }
  finish(result);
  return result;
}

void HostDriver::finish(DriverResult& result) {
  // Collect any responses registered on the final cycle.
  drain_responses(result);
  result.cycles = sim_.now();
}

bool HostDriver::invariants_ok(const DriverResult& result,
                               std::string* detail) const {
  const auto fail = [detail](std::string msg) {
    if (detail != nullptr) *detail = std::move(msg);
    return false;
  };
  const u64 cap = std::min<u32>(cfg_.max_outstanding_per_port, 512);
  u64 outstanding = 0;
  u64 zombies = 0;
  for (usize i = 0; i < ports_.size(); ++i) {
    const PortState& p = ports_[i];
    if (p.free_tags.size() + p.outstanding != cap) {
      return fail("port " + std::to_string(i) + ": free tags " +
                  std::to_string(p.free_tags.size()) + " + outstanding " +
                  std::to_string(p.outstanding) + " != tag pool " +
                  std::to_string(cap));
    }
    u64 port_zombies = 0;
    for (const InFlight& fl : p.inflight) {
      if (fl.zombie) ++port_zombies;
    }
    if (port_zombies > p.outstanding) {
      return fail("port " + std::to_string(i) + ": " +
                  std::to_string(port_zombies) + " zombie tags exceed " +
                  std::to_string(p.outstanding) + " outstanding");
    }
    outstanding += p.outstanding;
    zombies += port_zombies;
  }
  if (result.sent < result.completed) {
    return fail("completed " + std::to_string(result.completed) +
                " exceeds sent " + std::to_string(result.sent));
  }
  // Every sent-but-incomplete request is live under exactly one tag, queued
  // for a resend, or staged as the pending retry.  Zombie tags are excluded:
  // their request already completed (abandoned) or moved to the retry queue.
  const u64 live = outstanding - zombies + retry_queue_.size() +
                   ((have_pending_ && pending_is_retry_) ? u64{1} : u64{0});
  if (result.sent - result.completed != live) {
    return fail("sent " + std::to_string(result.sent) + " - completed " +
                std::to_string(result.completed) + " != live in-flight " +
                std::to_string(live) + " (outstanding " +
                std::to_string(outstanding) + ", zombies " +
                std::to_string(zombies) + ", retry queue " +
                std::to_string(retry_queue_.size()) + ")");
  }
  return true;
}

// ---- driver state and host blob (checkpoint HOST section) ----------------
//
// Every value is one word of the checkpoint's codec (io/word_codec.hpp).

namespace {

// Distinct magics, so a driver-state stream can never be confused with a
// full host blob (which embeds one).
constexpr u64 kDriverMagic = 0x3154534f48434d48ull;    // "HMCHOST1" LE
constexpr u64 kHostBlobMagic = 0x31424c42484d4348ull;  // "HCMHBLB1" LE

namespace layout {

template <class Ar, io::Record<RequestDesc> D>
bool io(Ar& ar, D& desc) {
  return ar(desc.cmd, kMaxRawCommand) && ar(desc.addr);
}

template <class Ar, io::Record<DriverResult> R>
bool io(Ar& ar, R& r) {
  return ar(r.cycles) && ar(r.sent) && ar(r.completed) && ar(r.errors) &&
         ar(r.send_stalls) && ar(r.timeouts) && ar(r.retries) &&
         ar(r.abandoned) && ar(r.hit_cycle_cap) && ar(r.watchdog_fired) &&
         ar(r.latency.count) && ar(r.latency.sum) && ar(r.latency.min) &&
         ar(r.latency.max) && io::each(ar, r.latency.log2_buckets);
}

}  // namespace layout
}  // namespace

template <class Ar, class Self>
bool HostDriver::io(Ar& ar, Self& d) {
  if (!ar.expect(kDriverMagic) || !ar.expect(d.ports_.size())) return false;
  for (auto& port : d.ports_) {
    // A free tag names a slot of the port's tag table.
    const u64 tags = port.inflight.size();
    if (!io::list(ar, port.free_tags, tags,
                  [&ar, tags](auto& tag) { return ar(tag) && tag < tags; }) ||
        !ar(port.outstanding)) {
      return false;
    }
    for (auto& fl : port.inflight) {
      if (!layout::io(ar, fl.desc) || !ar(fl.sent_at) || !ar(fl.deadline) ||
          !ar(fl.cub) || !ar(fl.attempts) || !ar(fl.zombie)) {
        return false;
      }
    }
  }
  return io::list(ar, d.retry_queue_, ~u64{0},
                  [&](auto& e) {
                    return layout::io(ar, e.desc) && ar(e.cub) &&
                           ar(e.attempts) && ar(e.not_before);
                  }) &&
         ar(d.rr_next_) && ar(d.next_cube_) && ar(d.have_pending_) &&
         layout::io(ar, d.pending_) && ar(d.pending_cub_) &&
         ar(d.pending_attempts_) && ar(d.pending_is_retry_) &&
         ar(d.gen_calls_);
}

Status HostDriver::save(std::ostream& os) const {
  io::WordWriter ar(os);
  io(ar, *this);
  os.flush();
  return os ? Status::Ok : Status::Internal;
}

Status HostDriver::restore(std::istream& is) {
  io::WordReader ar(is);
  if (!io(ar, *this)) return Status::MalformedPacket;
  // The generator is drawn once per fresh request (retries reuse their
  // descriptor), so a legitimate count can never exceed the request budget
  // plus the held pending draw; a forged count must not drive the replay
  // loop below unbounded.
  if (gen_calls_ > cfg_.total_requests + 1) return Status::MalformedPacket;
  // Re-synchronize the (freshly re-seeded) generator by replaying the
  // recorded number of draws.
  for (u64 i = 0; i < gen_calls_; ++i) gen_.next();
  return Status::Ok;
}

std::string save_host_state(const HostDriver& driver,
                            const DriverResult& result) {
  std::ostringstream os;
  io::WordWriter ar(os);
  ar.expect(kHostBlobMagic);
  layout::io(ar, result);
  if (!ok(driver.save(os))) return std::string{};
  return os.str();
}

Status restore_host_state(const std::string& blob, HostDriver& driver,
                          DriverResult& result) {
  std::istringstream is(blob);
  io::WordReader ar(is);
  DriverResult r;
  if (!ar.expect(kHostBlobMagic) || !layout::io(ar, r)) {
    return Status::MalformedPacket;
  }
  const Status st = driver.restore(is);
  if (!ok(st)) return st;
  // Reject trailing garbage: the blob must be exactly one result + one
  // driver state.
  if (is.peek() != std::istringstream::traits_type::eof()) {
    return Status::MalformedPacket;
  }
  result = r;
  return Status::Ok;
}

}  // namespace hmcsim
