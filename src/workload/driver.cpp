#include "workload/driver.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

namespace hmcsim {
namespace {

// Little-endian u64 framing for HostDriver::save/restore, matching the
// simulator checkpoint convention.
constexpr u64 kDriverMagic = 0x3154534f48434d48ull;  // "HMCHOST1" LE

void put_u64(std::ostream& os, u64 v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  os.write(bytes, 8);
}

bool get_u64(std::istream& is, u64& v) {
  char bytes[8];
  if (!is.read(bytes, 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<u64>(static_cast<u8>(bytes[i])) << (8 * i);
  }
  return true;
}

}  // namespace

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

Status HostDriver::save(std::ostream& os) const {
  put_u64(os, kDriverMagic);
  put_u64(os, ports_.size());
  for (const PortState& port : ports_) {
    put_u64(os, port.free_tags.size());
    for (const u16 tag : port.free_tags) put_u64(os, tag);
    put_u64(os, port.outstanding);
    for (const InFlight& fl : port.inflight) {
      put_u64(os, static_cast<u8>(fl.desc.cmd));
      put_u64(os, fl.desc.addr);
      put_u64(os, fl.sent_at);
      put_u64(os, fl.deadline);
      put_u64(os, fl.cub);
      put_u64(os, fl.attempts);
      put_u64(os, fl.zombie ? 1 : 0);
    }
  }
  put_u64(os, retry_queue_.size());
  for (const RetryEntry& e : retry_queue_) {
    put_u64(os, static_cast<u8>(e.desc.cmd));
    put_u64(os, e.desc.addr);
    put_u64(os, e.cub);
    put_u64(os, e.attempts);
    put_u64(os, e.not_before);
  }
  put_u64(os, rr_next_);
  put_u64(os, next_cube_);
  put_u64(os, have_pending_ ? 1 : 0);
  put_u64(os, static_cast<u8>(pending_.cmd));
  put_u64(os, pending_.addr);
  put_u64(os, pending_cub_);
  put_u64(os, pending_attempts_);
  put_u64(os, pending_is_retry_ ? 1 : 0);
  put_u64(os, gen_calls_);
  os.flush();
  return os ? Status::Ok : Status::Internal;
}

Status HostDriver::restore(std::istream& is) {
  u64 magic = 0, num_ports = 0;
  if (!get_u64(is, magic) || magic != kDriverMagic) {
    return Status::MalformedPacket;
  }
  if (!get_u64(is, num_ports) || num_ports != ports_.size()) {
    return Status::MalformedPacket;
  }
  for (PortState& port : ports_) {
    u64 num_free = 0;
    if (!get_u64(is, num_free) || num_free > port.inflight.size()) {
      return Status::MalformedPacket;
    }
    port.free_tags.clear();
    for (u64 i = 0; i < num_free; ++i) {
      u64 tag = 0;
      if (!get_u64(is, tag) || tag >= port.inflight.size()) {
        return Status::MalformedPacket;
      }
      port.free_tags.push_back(static_cast<u16>(tag));
    }
    u64 outstanding = 0;
    if (!get_u64(is, outstanding)) return Status::MalformedPacket;
    port.outstanding = static_cast<u32>(outstanding);
    for (InFlight& fl : port.inflight) {
      u64 cmd = 0, cub = 0, attempts = 0, zombie = 0;
      if (!get_u64(is, cmd) || !get_u64(is, fl.desc.addr) ||
          !get_u64(is, fl.sent_at) || !get_u64(is, fl.deadline) ||
          !get_u64(is, cub) || !get_u64(is, attempts) ||
          !get_u64(is, zombie)) {
        return Status::MalformedPacket;
      }
      fl.desc.cmd = static_cast<Command>(cmd);
      fl.cub = static_cast<u32>(cub);
      fl.attempts = static_cast<u32>(attempts);
      fl.zombie = zombie != 0;
    }
  }
  u64 num_retries = 0;
  if (!get_u64(is, num_retries)) return Status::MalformedPacket;
  retry_queue_.clear();
  for (u64 i = 0; i < num_retries; ++i) {
    RetryEntry e;
    u64 cmd = 0, cub = 0, attempts = 0;
    if (!get_u64(is, cmd) || !get_u64(is, e.desc.addr) ||
        !get_u64(is, cub) || !get_u64(is, attempts) ||
        !get_u64(is, e.not_before)) {
      return Status::MalformedPacket;
    }
    e.desc.cmd = static_cast<Command>(cmd);
    e.cub = static_cast<u32>(cub);
    e.attempts = static_cast<u32>(attempts);
    retry_queue_.push_back(e);
  }
  u64 rr = 0, cube = 0, have_pending = 0, pcmd = 0, pcub = 0, pattempts = 0,
      pretry = 0, gen_calls = 0;
  if (!get_u64(is, rr) || !get_u64(is, cube) || !get_u64(is, have_pending) ||
      !get_u64(is, pcmd) || !get_u64(is, pending_.addr) ||
      !get_u64(is, pcub) || !get_u64(is, pattempts) ||
      !get_u64(is, pretry) || !get_u64(is, gen_calls)) {
    return Status::MalformedPacket;
  }
  rr_next_ = static_cast<usize>(rr);
  next_cube_ = static_cast<u32>(cube);
  have_pending_ = have_pending != 0;
  pending_.cmd = static_cast<Command>(pcmd);
  pending_cub_ = static_cast<u32>(pcub);
  pending_attempts_ = static_cast<u32>(pattempts);
  pending_is_retry_ = pretry != 0;
  // The generator is drawn once per fresh request (retries reuse their
  // descriptor), so a legitimate count can never exceed the request budget
  // plus the held pending draw; a forged count must not drive the replay
  // loop below unbounded.
  if (gen_calls > cfg_.total_requests + 1) return Status::MalformedPacket;
  // Re-synchronize the (freshly re-seeded) generator by replaying the
  // recorded number of draws.
  gen_calls_ = 0;
  for (u64 i = 0; i < gen_calls; ++i) gen_.next();
  gen_calls_ = gen_calls;
  return Status::Ok;
}

// ---- host blob (checkpoint HOST section) -----------------------------------

namespace {

// Distinct magic so a driver-state stream can never be confused with a
// full host blob (which embeds one).
constexpr u64 kHostBlobMagic = 0x31424c42484d4348ull;  // "HCMHBLB1" LE

void put_result(std::ostream& os, const DriverResult& r) {
  put_u64(os, r.cycles);
  put_u64(os, r.sent);
  put_u64(os, r.completed);
  put_u64(os, r.errors);
  put_u64(os, r.send_stalls);
  put_u64(os, r.timeouts);
  put_u64(os, r.retries);
  put_u64(os, r.abandoned);
  put_u64(os, r.hit_cycle_cap ? 1 : 0);
  put_u64(os, r.watchdog_fired ? 1 : 0);
  put_u64(os, r.latency.count);
  put_u64(os, r.latency.sum);
  put_u64(os, r.latency.min);
  put_u64(os, r.latency.max);
  for (const u64 bucket : r.latency.log2_buckets) put_u64(os, bucket);
}

bool get_result(std::istream& is, DriverResult& r) {
  u64 cap = 0, fired = 0;
  if (!get_u64(is, r.cycles) || !get_u64(is, r.sent) ||
      !get_u64(is, r.completed) || !get_u64(is, r.errors) ||
      !get_u64(is, r.send_stalls) || !get_u64(is, r.timeouts) ||
      !get_u64(is, r.retries) || !get_u64(is, r.abandoned) ||
      !get_u64(is, cap) || !get_u64(is, fired) ||
      !get_u64(is, r.latency.count) || !get_u64(is, r.latency.sum) ||
      !get_u64(is, r.latency.min) || !get_u64(is, r.latency.max)) {
    return false;
  }
  r.hit_cycle_cap = cap != 0;
  r.watchdog_fired = fired != 0;
  for (u64& bucket : r.latency.log2_buckets) {
    if (!get_u64(is, bucket)) return false;
  }
  return true;
}

}  // namespace

std::string save_host_state(const HostDriver& driver,
                            const DriverResult& result) {
  std::ostringstream os;
  put_u64(os, kHostBlobMagic);
  put_result(os, result);
  if (!ok(driver.save(os))) return std::string{};
  return os.str();
}

Status restore_host_state(const std::string& blob, HostDriver& driver,
                          DriverResult& result) {
  std::istringstream is(blob);
  u64 magic = 0;
  if (!get_u64(is, magic) || magic != kHostBlobMagic) {
    return Status::MalformedPacket;
  }
  DriverResult r;
  if (!get_result(is, r)) return Status::MalformedPacket;
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
