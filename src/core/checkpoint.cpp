// Checkpoint serialization for Simulator (see simulator.hpp for the API
// contract and checkpoint.hpp for the robustness layer).  Versioned
// little-endian binary format; since v6 the body is section-framed:
//
//   magic "HMCSIMCK" | version u32
//   section*:  type u32 | payload_len u64 | payload crc32k u32 | payload
//   trailer magic "HMCSIMEN"
//
// Mandatory section order: CFG, TOPO, CLK, DEVC (once per device), WDOG,
// CHAO (mandatory since v8), an optional HOST blob, then the trailer.
// Section payloads:
//
//   CFG   SimConfig fields
//   TOPO  devices u32, links u32, endpoints[devices*links]
//   CLK   clock u64
//   DEVC  stats, register snapshot, memory pages (count u64, then
//         (index u64, 4096 raw bytes)*), link queues + protocol state,
//         vault queues (+ bank timing + rng + backend state frame), mode
//         staging queue, RAS block
//   WDOG  forward-progress watchdog state
//   CHAO  chaos campaign: plan CRC, cursor/progress counters, host-timeout
//         override, the restore baselines, then the compiled event list
//   HOST  opaque host-driver blob (workload/driver.hpp), passed through
//
// Queue entries serialize the raw packet plus routing metadata; decoded
// request fields are re-derived on load so the packet remains the single
// source of truth.
//
// Restore is hostile-input safe: every failure mode — bad magic, short
// read, CRC mismatch, impossible field value, unknown version — becomes a
// typed CheckpointError, and no input can make it allocate unboundedly
// (section lengths are capped and payloads are read in bounded chunks, so
// a forged length only ever costs the bytes actually present).
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/simulator.hpp"
#include "io/atomic_file.hpp"
#include "packet/crc32.hpp"

namespace hmcsim {
namespace {

constexpr char kMagic[8] = {'H', 'M', 'C', 'S', 'I', 'M', 'C', 'K'};
constexpr char kTrailer[8] = {'H', 'M', 'C', 'S', 'I', 'M', 'E', 'N'};
// Version 2 added per-entry PacketLifecycle stamps to both queue records.
// Version 3 added the RAS subsystem: new config knobs and stats counters,
// the fault-injection RNG state (previously lost across restore, so
// fault-injected runs diverged), the DRAM fault sidecar, scrubber/
// degradation state, and the forward-progress watchdog state.
// Version 4 gave every vault its own DRAM fault RNG: each vault block now
// carries its generator state.  Execution knobs such as fast_forward are
// deliberately NOT serialized — checkpoints must be byte-identical whatever
// the execution strategy (the differential harness asserts exactly that).
//
// Version 5 added the spec link-layer reliability protocol: the
// link_protocol config knobs, 13 link-layer stats counters, two RAS
// registers (RAS_LINK_RETRY / RAS_LINK_TOKEN), and per-link LinkProtoState
// (token pool, retry pointers, SEQ, error-abort machine including a
// possibly-held replay packet).
//
// Version 6 changed the container, not the payload encoding: the body is
// now split into sections, each framed with a type, byte length, and
// CRC-32K, and the file ends with a trailer magic.  Truncation and bit-rot
// are therefore *detected* instead of being misparsed, which is what makes
// crash-consistent auto-checkpointing (checkpoint.hpp) safe.  v6 also
// introduced the optional HOST section carrying opaque host-driver state.
//
// Version 7 added pluggable vault timing backends: the backend selection
// and parameter config knobs (device-wide kind, per-vault overrides, the
// generic_ddr and pcm_like timing parameters), one stats counter
// (pcm_write_throttle_stalls), and a per-vault backend-private state frame
// (kind + length + opaque blob) after the vault RNG.
//
// Version 8 added the CHAO section: a mid-campaign chaos
// checkpoint carries the compiled plan (so the resumed run needs nothing
// but the same plan file, verified by CRC), the event cursor and progress
// counters, any live host-timeout override, and the four fault-rate
// baselines `restore` events re-arm (the live config in CFG already holds
// the mid-campaign mutated rates, so the originals must travel
// separately).  The section is written even with no campaign armed (a
// fixed pristine payload): a v8 stream must never parse as v7 under a
// relabeled version word.  The chaos_invariants cadence knob is
// deliberately NOT serialized — it is an observability knob like
// telemetry_interval_cycles.
//
// Restore reads versions 6 through 8, the framed container.  The unframed
// v2-v5 streams could not tell bit-rot from data, so their reader is gone:
// those versions now fail in the preamble with UnsupportedVersion, like any
// version outside the range.  Fields a readable version lacks keep their
// init() values: v6 restores keep the default hmc_dram backend with
// power-on (reset) backend state.  Save always writes the current version.
// Committed fixtures for every readable version live under
// tests/golden/checkpoints/ and are replayed by test_checkpoint_compat.
constexpr u32 kVersion = 8;
constexpr u32 kMinVersion = 6;
// Per-vault backend override list cap (config_file caps indices below 64,
// so more entries can never validate) and backend-private blob cap: both
// bound what a forged CFG/DEVC payload can make restore allocate.
constexpr u64 kMaxVaultOverrides = 64;
constexpr u64 kMaxBackendBlobBytes = 4096;

constexpr u64 le_word(const char (&bytes)[8]) {
  u64 w = 0;
  for (int i = 0; i < 8; ++i) {
    w |= static_cast<u64>(static_cast<u8>(bytes[i])) << (8 * i);
  }
  return w;
}
constexpr u64 kTrailerWord = le_word(kTrailer);

// ---- primitive writers/readers --------------------------------------------

void put_bytes(std::ostream& os, const void* data, usize size) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(size));
}

bool get_bytes(std::istream& is, void* data, usize size) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  return static_cast<bool>(is);
}

void put_u64(std::ostream& os, u64 v) {
  u8 bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<u8>(v >> (8 * i));
  put_bytes(os, bytes, 8);
}

bool get_u64(std::istream& is, u64& v) {
  u8 bytes[8];
  if (!get_bytes(is, bytes, 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(bytes[i]) << (8 * i);
  return true;
}

void put_u32(std::ostream& os, u32 v) { put_u64(os, v); }

bool get_u32(std::istream& is, u32& v) {
  u64 wide = 0;
  if (!get_u64(is, wide) || wide > 0xffffffffull) return false;
  v = static_cast<u32>(wide);
  return true;
}

void put_u8(std::ostream& os, u8 v) { put_u64(os, v); }

bool get_u8(std::istream& is, u8& v) {
  u64 wide = 0;
  if (!get_u64(is, wide) || wide > 0xffull) return false;
  v = static_cast<u8>(wide);
  return true;
}

// A flag travels as a word holding 0 or 1; any other value is damage.
void put_flag(std::ostream& os, bool v) { put_u64(os, v ? 1 : 0); }

bool get_flag(std::istream& is, bool& v) {
  u64 wide = 0;
  if (!get_u64(is, wide) || wide > 1) return false;
  v = wide != 0;
  return true;
}

// An enum byte must name one of its enumerators; `last` is the highest.
template <typename E>
bool get_enum(std::istream& is, E& out, E last) {
  u8 raw = 0;
  if (!get_u8(is, raw) || raw > static_cast<u8>(last)) return false;
  out = static_cast<E>(raw);
  return true;
}

u32 payload_crc(const std::string& payload) {
  return crc::crc32k(std::span<const u8>(
      reinterpret_cast<const u8*>(payload.data()), payload.size()));
}

// ---- aggregate writers/readers --------------------------------------------

void put_packet(std::ostream& os, const PacketBuffer& pkt) {
  put_u32(os, pkt.flits);
  for (usize i = 0; i < pkt.word_count(); ++i) put_u64(os, pkt.words[i]);
}

bool get_packet(std::istream& is, PacketBuffer& pkt) {
  u32 flits = 0;
  if (!get_u32(is, flits) || flits < spec::kMinPacketFlits ||
      flits > spec::kMaxPacketFlits) {
    return false;
  }
  pkt = PacketBuffer{};
  pkt.flits = flits;
  for (usize i = 0; i < pkt.word_count(); ++i) {
    if (!get_u64(is, pkt.words[i])) return false;
  }
  return true;
}

void put_queue_stats(std::ostream& os, const QueueStats& s) {
  put_u64(os, s.total_pushes);
  put_u64(os, s.total_pops);
  put_u64(os, s.rejected_full);
  put_u64(os, s.high_water);
}

bool get_queue_stats(std::istream& is, QueueStats& s) {
  u64 high_water = 0;
  if (!get_u64(is, s.total_pushes) || !get_u64(is, s.total_pops) ||
      !get_u64(is, s.rejected_full) || !get_u64(is, high_water)) {
    return false;
  }
  s.high_water = static_cast<usize>(high_water);
  return true;
}

void put_lifecycle(std::ostream& os, const PacketLifecycle& lc) {
  put_u64(os, lc.inject);
  put_u64(os, lc.vault_arrive);
  put_u64(os, lc.first_conflict);
  put_u64(os, lc.retire);
  put_u64(os, lc.rsp_register);
  put_u64(os, lc.drain);
  put_u32(os, lc.dev);
  put_u32(os, lc.vault);
  put_u32(os, lc.link);
  put_u32(os, lc.tag);
  put_u8(os, static_cast<u8>(lc.cmd));
}

bool get_lifecycle(std::istream& is, PacketLifecycle& lc) {
  u32 tag = 0;
  u8 cmd = 0;
  if (!get_u64(is, lc.inject) || !get_u64(is, lc.vault_arrive) ||
      !get_u64(is, lc.first_conflict) || !get_u64(is, lc.retire) ||
      !get_u64(is, lc.rsp_register) || !get_u64(is, lc.drain) ||
      !get_u32(is, lc.dev) || !get_u32(is, lc.vault) ||
      !get_u32(is, lc.link) || !get_u32(is, tag) || !get_u8(is, cmd)) {
    return false;
  }
  lc.tag = static_cast<Tag>(tag);
  lc.cmd = static_cast<Command>(cmd);
  return true;
}

// What a queue-entry decoder checks a record against.  The routing fields
// index arrays on the next clock (a response drains into
// dev.links[home_link]), so a value past the topology is rejected here.
struct EntryContext {
  const CustomCommandSet& custom;
  u32 devices;
  u32 links;
};

void put_request_entry(std::ostream& os, const RequestEntry& e) {
  put_packet(os, e.pkt);
  put_u64(os, e.ready_cycle);
  put_u32(os, e.home_dev);
  put_u32(os, e.home_link);
  put_u32(os, e.ingress_link);
  put_flag(os, e.penalty_applied);
  put_u8(os, e.retries);
  put_lifecycle(os, e.life);
}

bool get_request_entry(std::istream& is, RequestEntry& e,
                       const EntryContext& ctx) {
  if (!get_packet(is, e.pkt) || !get_u64(is, e.ready_cycle) ||
      !get_u32(is, e.home_dev) || !get_u32(is, e.home_link) ||
      !get_u32(is, e.ingress_link) || !get_flag(is, e.penalty_applied) ||
      !get_u8(is, e.retries) || !get_lifecycle(is, e.life) ||
      e.home_dev >= ctx.devices || e.home_link >= ctx.links ||
      e.ingress_link >= ctx.links) {
    return false;
  }
  const u8 raw_cmd = static_cast<u8>(extract(e.pkt.header(), 0, 6));
  if (const CustomCommandDef* def = ctx.custom.find(raw_cmd)) {
    if (!ok(decode_custom_request(e.pkt, *def, e.req))) return false;
    e.custom = def;
  } else if (!ok(decode_request(e.pkt, e.req))) {
    return false;
  }
  return true;
}

void put_request_queue(std::ostream& os,
                       const BoundedQueue<RequestEntry>& q) {
  put_u64(os, q.size());
  for (const RequestEntry& e : q) put_request_entry(os, e);
  put_queue_stats(os, q.stats());
}

/// `banks` is set for a vault queue, whose entries are keyed by their bank
/// as stage 2 keys them; link queues pass null and key every entry 0.
bool get_request_queue(std::istream& is, BoundedQueue<RequestEntry>& q,
                       const EntryContext& ctx,
                       const AddressMap* banks = nullptr) {
  u64 count = 0;
  if (!get_u64(is, count) || count > q.capacity()) return false;
  q.clear();
  for (u64 i = 0; i < count; ++i) {
    RequestEntry e;
    if (!get_request_entry(is, e, ctx)) return false;
    const u32 key = banks != nullptr ? banks->bank_of(e.req.addr) : 0;
    if (!q.push(std::move(e), key)) return false;
  }
  QueueStats stats;
  if (!get_queue_stats(is, stats)) return false;
  q.restore_stats(stats);
  return true;
}

void put_response_queue(std::ostream& os,
                        const BoundedQueue<ResponseEntry>& q) {
  put_u64(os, q.size());
  for (const ResponseEntry& e : q) {
    put_packet(os, e.pkt);
    put_u64(os, e.ready_cycle);
    put_u32(os, e.home_dev);
    put_u32(os, e.home_link);
    put_lifecycle(os, e.life);
  }
  put_queue_stats(os, q.stats());
}

bool get_response_queue(std::istream& is, BoundedQueue<ResponseEntry>& q,
                        const EntryContext& ctx) {
  u64 count = 0;
  if (!get_u64(is, count) || count > q.capacity()) return false;
  q.clear();
  for (u64 i = 0; i < count; ++i) {
    ResponseEntry e;
    if (!get_packet(is, e.pkt) || !get_u64(is, e.ready_cycle) ||
        !get_u32(is, e.home_dev) || !get_u32(is, e.home_link) ||
        !get_lifecycle(is, e.life) || e.home_dev >= ctx.devices ||
        e.home_link >= ctx.links) {
      return false;
    }
    ResponseFields f;
    if (!ok(decode_response(e.pkt, f))) return false;
    e.tag = f.tag;
    e.cmd = f.cmd;
    if (!q.push(std::move(e))) return false;
  }
  QueueStats stats;
  if (!get_queue_stats(is, stats)) return false;
  q.restore_stats(stats);
  return true;
}

void put_stats(std::ostream& os, const DeviceStats& s) {
  for (const StatField& f : kStatFields) put_u64(os, s.*f.member);
}

bool get_stats(std::istream& is, DeviceStats& s, u32 version) {
  // v6 predates the last counter, pcm_write_throttle_stalls (v7).
  const usize count = std::size(kStatFields) - (version >= 7 ? 0 : 1);
  for (usize i = 0; i < count; ++i) {
    if (!get_u64(is, s.*kStatFields[i].member)) return false;
  }
  return true;
}

// The CFG block: every checkpointed kConfigFields word in table order, then
// (v7) the per-vault backend override list.
void put_device_config(std::ostream& os, const DeviceConfig& c) {
  for (const ConfigField& f : kConfigFields) {
    if (f.checkpointed()) put_u64(os, f.get(c));
  }
  put_u64(os, c.vault_backends.size());
  for (const auto& [vault, backend] : c.vault_backends) {
    put_u32(os, vault);
    put_u8(os, static_cast<u8>(backend));
  }
}

bool get_device_config(std::istream& is, DeviceConfig& c, u32 version) {
  // Fields newer than `version` keep their defaults: v6 restores keep the
  // hmc_dram backend and its parameter defaults.
  for (const ConfigField& f : kConfigFields) {
    if (!f.checkpointed() || f.since > version) continue;
    u64 word = 0;
    if (!get_u64(is, word) || word > f.max) return false;
    f.set(c, word);
  }
  if (version < 7) return true;
  u64 overrides = 0;
  if (!get_u64(is, overrides) || overrides > kMaxVaultOverrides) return false;
  c.vault_backends.clear();
  c.vault_backends.reserve(static_cast<usize>(overrides));
  for (u64 i = 0; i < overrides; ++i) {
    u32 index = 0;
    TimingBackend backend{};
    if (!get_u32(is, index) ||
        !get_enum(is, backend, TimingBackend::PcmLike)) {
      return false;
    }
    c.vault_backends.emplace_back(index, backend);
  }
  return true;
}

// Per-link retry/token protocol state.  The held replay packet is only
// present while the error-abort machine is mid-recovery.
void put_link_proto(std::ostream& os, const LinkProtoState& st) {
  put_u64(os, static_cast<u64>(st.tokens));
  put_u64(os, st.tokens_debited);
  put_u64(os, st.tokens_returned);
  put_u32(os, st.retry_buf_flits);
  put_u8(os, st.tx_frp);
  put_u8(os, st.rx_rrp);
  put_u8(os, st.tx_seq);
  put_u8(os, st.rx_seq);
  put_u64(os, st.retrain_until);
  put_u32(os, st.burst_remaining);
  put_u32(os, st.fail_count);
  put_flag(os, st.dead);
  put_flag(os, st.replay_pending);
  if (st.replay_pending) put_request_entry(os, st.replay);
}

bool get_link_proto(std::istream& is, LinkProtoState& st,
                    const EntryContext& ctx) {
  u64 tokens = 0;
  if (!get_u64(is, tokens) || !get_u64(is, st.tokens_debited) ||
      !get_u64(is, st.tokens_returned) || !get_u32(is, st.retry_buf_flits) ||
      !get_u8(is, st.tx_frp) || !get_u8(is, st.rx_rrp) ||
      !get_u8(is, st.tx_seq) || !get_u8(is, st.rx_seq) ||
      !get_u64(is, st.retrain_until) || !get_u32(is, st.burst_remaining) ||
      !get_u32(is, st.fail_count) || !get_flag(is, st.dead) ||
      !get_flag(is, st.replay_pending)) {
    return false;
  }
  st.tokens = static_cast<i64>(tokens);
  return !st.replay_pending || get_request_entry(is, st.replay, ctx);
}

// ---- whole-device block (one DEVC section) ---------------------------------

void put_device_block(std::ostream& os, const Device& dev) {
  put_stats(os, dev.stats);

  const RegisterFile::Snapshot regs = dev.regs.snapshot();
  for (const u64 v : regs.values) put_u64(os, v);
  for (const bool b : regs.pending_self_clear) put_flag(os, b);

  // Pages are emitted in ascending index order so that checkpoints are
  // deterministic (byte-identical for identical state) regardless of the
  // hash map's insertion history.
  std::vector<u64> page_indices;
  page_indices.reserve(dev.store.resident_pages());
  dev.store.for_each_page([&](u64 index, std::span<const u8>) {
    page_indices.push_back(index);
  });
  std::sort(page_indices.begin(), page_indices.end());
  put_u64(os, page_indices.size());
  std::vector<u8> page_bytes(SparseStore::kPageBytes);
  for (const u64 index : page_indices) {
    put_u64(os, index);
    (void)dev.store.read(index * SparseStore::kPageBytes, page_bytes);
    put_bytes(os, page_bytes.data(), page_bytes.size());
  }

  for (const LinkState& link : dev.links) {
    put_request_queue(os, link.rqst);
    put_response_queue(os, link.rsp);
    put_u64(os, link.rqst_flits_forwarded);
    put_u64(os, link.rsp_flits_forwarded);
    put_u64(os, static_cast<u64>(link.rqst_budget));
    put_u64(os, static_cast<u64>(link.rsp_budget));
    put_link_proto(os, link.proto);
  }
  for (const VaultState& vault : dev.vaults) {
    put_request_queue(os, vault.rqst);
    put_response_queue(os, vault.rsp);
    for (const Cycle busy : vault.bank_busy_until) put_u64(os, busy);
    for (const u64 row : vault.open_row) put_u64(os, row);
    put_u64(os, vault.dram_rng.state());
    // v7: backend-private state frame (kind, length, opaque blob).  The
    // shared bank arrays above stay in the container's own encoding.
    put_u8(os, static_cast<u8>(vault.timing->kind()));
    std::ostringstream blob;
    vault.timing->serialize(blob);
    const std::string bytes = blob.str();
    put_u64(os, bytes.size());
    put_bytes(os, bytes.data(), bytes.size());
  }
  put_response_queue(os, dev.mode_rsp);

  // RAS state: RNG, fault sidecar (ascending order by construction),
  // degradation, error log, scrub cursor.
  put_u64(os, dev.fault_rng.state());
  put_u64(os, dev.store.fault_count());
  dev.store.for_each_fault([&](u64 word, u64 data_flips, u8 check_flips) {
    put_u64(os, word);
    put_u64(os, data_flips);
    put_u8(os, check_flips);
  });
  put_u64(os, dev.ras.failed_vaults);
  for (const u32 count : dev.ras.vault_uncorrectable) put_u32(os, count);
  put_u64(os, dev.ras.scrub_cursor);
  put_u64(os, dev.ras.scrub_passes);
  put_u64(os, dev.ras.last_error_addr);
  put_u8(os, dev.ras.last_error_stat);
}

/// Mirror of put_device_block.  On failure `*what` names the sub-record
/// that could not be decoded.
bool get_device_block(std::istream& is, Device& dev, u32 version,
                      const EntryContext& ctx, const char** what) {
  *what = "device stats";
  if (!get_stats(is, dev.stats, version)) return false;

  *what = "register snapshot";
  RegisterFile::Snapshot regs;
  for (u64& v : regs.values) {
    if (!get_u64(is, v)) return false;
  }
  for (bool& pending : regs.pending_self_clear) {
    if (!get_flag(is, pending)) return false;
  }
  dev.regs.restore(regs);

  *what = "memory page";
  u64 pages = 0;
  if (!get_u64(is, pages)) return false;
  std::vector<u8> page(SparseStore::kPageBytes);
  for (u64 p = 0; p < pages; ++p) {
    u64 index = 0;
    if (!get_u64(is, index) || !get_bytes(is, page.data(), page.size()) ||
        !dev.store.restore_page(index, page)) {
      return false;
    }
  }

  for (LinkState& link : dev.links) {
    *what = "link queue";
    if (!get_request_queue(is, link.rqst, ctx) ||
        !get_response_queue(is, link.rsp, ctx)) {
      return false;
    }
    *what = "link budgets";
    u64 rqst_budget = 0, rsp_budget = 0;
    if (!get_u64(is, link.rqst_flits_forwarded) ||
        !get_u64(is, link.rsp_flits_forwarded) ||
        !get_u64(is, rqst_budget) || !get_u64(is, rsp_budget)) {
      return false;
    }
    link.rqst_budget = static_cast<i64>(rqst_budget);
    link.rsp_budget = static_cast<i64>(rsp_budget);
    *what = "link protocol state";
    if (!get_link_proto(is, link.proto, ctx)) return false;
  }
  for (VaultState& vault : dev.vaults) {
    *what = "vault queue";
    if (!get_request_queue(is, vault.rqst, ctx, &dev.address_map()) ||
        !get_response_queue(is, vault.rsp, ctx)) {
      return false;
    }
    *what = "bank timing";
    for (Cycle& busy : vault.bank_busy_until) {
      if (!get_u64(is, busy)) return false;
    }
    for (u64& row : vault.open_row) {
      if (!get_u64(is, row)) return false;
    }
    *what = "vault rng";
    u64 dram_rng_state = 0;
    if (!get_u64(is, dram_rng_state)) return false;
    vault.dram_rng = SplitMix64(dram_rng_state);
    // v6 predates backend frames: the backend keeps its power-on state.
    if (version < 7) continue;
    // The backend was already constructed from the restored config, so
    // the frame's kind must agree; the blob is the backend's own state.
    *what = "vault backend state";
    u8 kind = 0;
    u64 blob_len = 0;
    if (!get_u8(is, kind) || kind != static_cast<u8>(vault.timing->kind()) ||
        !get_u64(is, blob_len) || blob_len > kMaxBackendBlobBytes ||
        !vault.timing->restore(is, blob_len)) {
      return false;
    }
  }
  *what = "mode response queue";
  if (!get_response_queue(is, dev.mode_rsp, ctx)) return false;

  *what = "fault sidecar";
  u64 rng_state = 0, fault_count = 0;
  if (!get_u64(is, rng_state) || !get_u64(is, fault_count)) return false;
  dev.fault_rng = SplitMix64(rng_state);
  for (u64 f = 0; f < fault_count; ++f) {
    u64 word = 0, data_flips = 0;
    u8 check_flips = 0;
    if (!get_u64(is, word) || !get_u64(is, data_flips) ||
        !get_u8(is, check_flips) ||
        !dev.store.restore_fault(word, data_flips, check_flips)) {
      return false;
    }
  }
  *what = "ras counters";
  if (!get_u64(is, dev.ras.failed_vaults)) return false;
  for (u32& count : dev.ras.vault_uncorrectable) {
    if (!get_u32(is, count)) return false;
  }
  return get_u64(is, dev.ras.scrub_cursor) &&
         get_u64(is, dev.ras.scrub_passes) &&
         get_u64(is, dev.ras.last_error_addr) &&
         get_u8(is, dev.ras.last_error_stat);
}

/// The knobs a checkpoint never carries (FieldScope::Knob): the execution
/// strategy, observation, and the snapshot and invariant-check cadences must
/// not leak into the bytes (a chaos campaign itself travels in CHAO).
void copy_execution_knobs(DeviceConfig& to, const DeviceConfig& from) {
  for (const ConfigField& f : kConfigFields) {
    if (!f.checkpointed()) f.set(to, f.get(from));
  }
}

}  // namespace

// ---- error rendering -------------------------------------------------------

const char* to_string(CheckpointErrorCode code) {
  switch (code) {
    case CheckpointErrorCode::None: return "ok";
    case CheckpointErrorCode::IoError: return "io error";
    case CheckpointErrorCode::BadMagic: return "bad magic";
    case CheckpointErrorCode::UnsupportedVersion:
      return "unsupported version";
    case CheckpointErrorCode::ShortRead: return "short read";
    case CheckpointErrorCode::BadSectionType: return "bad section type";
    case CheckpointErrorCode::SectionTooLarge: return "section too large";
    case CheckpointErrorCode::SectionCrcMismatch:
      return "section crc mismatch";
    case CheckpointErrorCode::TrailerMissing: return "trailer missing";
    case CheckpointErrorCode::BadFieldValue: return "bad field value";
    case CheckpointErrorCode::BadHostState: return "bad host state";
    case CheckpointErrorCode::WriteFailed: return "write failed";
  }
  return "unknown error";
}

std::string CheckpointError::message() const {
  if (code == CheckpointErrorCode::None) return "ok";
  std::string m = to_string(code);
  if (section != 0) {
    m += " in section ";
    m += ckpt::section_name(section);
  }
  if (offset != 0) m += " at byte " + std::to_string(offset);
  if (!detail.empty()) m += ": " + detail;
  return m;
}

namespace ckpt {

const char* section_name(u32 type) {
  switch (type) {
    case kSectionConfig: return "CFG";
    case kSectionTopology: return "TOPO";
    case kSectionClock: return "CLK";
    case kSectionDevice: return "DEVC";
    case kSectionWatchdog: return "WDOG";
    case kSectionChaos: return "CHAO";
    case kSectionHost: return "HOST";
    default: return "?";
  }
}

}  // namespace ckpt

// ---- save ------------------------------------------------------------------

Status Simulator::save_checkpoint(std::ostream& os) const {
  return save_checkpoint(os, nullptr, {});
}

Status Simulator::save_checkpoint(std::ostream& os, CheckpointError* err,
                                  std::string_view host_blob) const {
  if (err != nullptr) *err = CheckpointError{};
  if (!initialized()) {
    if (err != nullptr) {
      err->code = CheckpointErrorCode::BadFieldValue;
      err->detail = "simulator not initialized";
    }
    return Status::InvalidArgument;
  }

  put_bytes(os, kMagic, sizeof kMagic);
  put_u32(os, kVersion);

  std::ostringstream sec;
  const auto emit = [&](u32 type) {
    const std::string payload = sec.str();
    put_u32(os, type);
    put_u64(os, payload.size());
    put_u32(os, payload_crc(payload));
    put_bytes(os, payload.data(), payload.size());
    sec.str(std::string{});
    sec.clear();
  };

  put_u32(sec, config_.num_devices);
  put_device_config(sec, config_.device);
  emit(ckpt::kSectionConfig);

  put_u32(sec, topo_.num_devices());
  put_u32(sec, topo_.links_per_device());
  for (u32 d = 0; d < topo_.num_devices(); ++d) {
    for (u32 l = 0; l < topo_.links_per_device(); ++l) {
      const LinkEndpoint& e = topo_.endpoint(CubeId{d}, LinkId{l});
      put_u8(sec, static_cast<u8>(e.kind));
      put_u32(sec, e.peer_dev);
      put_u32(sec, e.peer_link);
    }
  }
  emit(ckpt::kSectionTopology);

  put_u64(sec, cycle_);
  emit(ckpt::kSectionClock);

  for (const auto& dev_ptr : devices_) {
    put_device_block(sec, *dev_ptr);
    emit(ckpt::kSectionDevice);
  }

  // Forward-progress watchdog.  The report is rebuilt on restore.
  put_flag(sec, watchdog_fired_);
  put_u32(sec, watchdog_stall_cycles_);
  put_u64(sec, watchdog_fingerprint_);
  emit(ckpt::kSectionWatchdog);

  // Chaos campaign (v8).  The section is self-contained (plan bytes travel
  // with the cursor) so a resume needs no side files, and the CRC lets a
  // re-passed --chaos-plan be verified against the checkpointed campaign.
  // With no campaign armed the payload is a fixed pristine form (empty-plan
  // CRC, zero counters) rather than being omitted: every v8 stream then
  // carries bytes a v7 parser cannot consume, so relabeling the version
  // word can never turn one valid stream into another.
  if (chaos_ != nullptr && !chaos_->plan().empty()) {
    const ChaosPlan& plan = chaos_->plan();
    put_u64(sec, chaos_->plan_crc());
    put_u64(sec, chaos_->cursor());
    put_u64(sec, chaos_->events_applied());
    put_u64(sec, chaos_->invariant_checks());
    put_flag(sec, chaos_->host_timeout_active());
    put_u64(sec, chaos_->host_timeout_value());
    const DeviceConfig& base = chaos_->baseline();
    put_u32(sec, base.link_error_rate_ppm);
    put_u32(sec, base.link_error_burst_len);
    put_u32(sec, base.dram_sbe_rate_ppm);
    put_u32(sec, base.dram_dbe_rate_ppm);
    put_u64(sec, plan.events.size());
    for (const ChaosEvent& ev : plan.events) {
      put_u64(sec, ev.cycle);
      put_u8(sec, static_cast<u8>(ev.action));
      put_u64(sec, ev.a);
      put_u64(sec, ev.b);
      put_flag(sec, ev.restore);
      put_u32(sec, ev.line);
    }
  } else {
    put_u64(sec, chaos_plan_crc(ChaosPlan{}));
    put_u64(sec, 0);  // cursor
    put_u64(sec, 0);  // events applied
    put_u64(sec, 0);  // invariant checks
    put_u8(sec, 0);   // host-timeout inactive
    put_u64(sec, 0);  // host-timeout value
    put_u32(sec, 0);  // baseline rates (unused without a campaign)
    put_u32(sec, 0);
    put_u32(sec, 0);
    put_u32(sec, 0);
    put_u64(sec, 0);  // event count
  }
  emit(ckpt::kSectionChaos);

  if (!host_blob.empty()) {
    put_bytes(sec, host_blob.data(), host_blob.size());
    emit(ckpt::kSectionHost);
  }

  put_bytes(os, kTrailer, sizeof kTrailer);

  os.flush();
  if (!os) {
    if (err != nullptr) {
      err->code = CheckpointErrorCode::WriteFailed;
      err->detail = "checkpoint stream write failed";
    }
    return Status::Internal;
  }
  return Status::Ok;
}

// ---- restore ---------------------------------------------------------------

Status Simulator::preset_execution_knobs(const DeviceConfig& knobs) {
  if (initialized()) return Status::InvalidArgument;
  copy_execution_knobs(config_.device, knobs);
  return Status::Ok;
}

Status Simulator::restore_checkpoint(std::istream& is) {
  return restore_checkpoint(is, nullptr, nullptr);
}

Status Simulator::restore_checkpoint(std::istream& is, CheckpointError* err,
                                     std::string* host_blob_out) {
  if (err != nullptr) *err = CheckpointError{};
  if (host_blob_out != nullptr) host_blob_out->clear();

  u32 cur_section = 0;
  const auto fail = [&](CheckpointErrorCode code, u64 at,
                        std::string detail) {
    if (err != nullptr) {
      err->code = code;
      err->offset = at;
      err->section = cur_section;
      err->detail = std::move(detail);
    }
    return code == CheckpointErrorCode::BadFieldValue
               ? Status::InvalidConfig
               : Status::MalformedPacket;
  };

  char magic[8];
  if (!get_bytes(is, magic, sizeof magic)) {
    return fail(CheckpointErrorCode::ShortRead, 0,
                "stream ended inside magic");
  }
  if (std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return fail(CheckpointErrorCode::BadMagic, 0, "not a checkpoint stream");
  }
  u64 version_word = 0;
  if (!get_u64(is, version_word)) {
    return fail(CheckpointErrorCode::ShortRead, 8,
                "stream ended inside version");
  }
  if (version_word < kMinVersion || version_word > kVersion) {
    return fail(CheckpointErrorCode::UnsupportedVersion, 8,
                "version " + std::to_string(version_word) + " outside [" +
                    std::to_string(kMinVersion) + ", " +
                    std::to_string(kVersion) + "]");
  }
  const u32 version = static_cast<u32>(version_word);

  // Byte offset of the next unread stream byte (magic + version consumed).
  u64 offset = 16;
  std::string payload;
  u64 payload_off = 0;
  Status frame_status = Status::Ok;

  // Read length + CRC + payload for the section whose type word has
  // already been consumed.  Payload bytes are pulled in bounded chunks so
  // a forged length never drives a huge up-front allocation — memory grows
  // only with bytes actually present in the stream.
  const auto read_frame_body = [&]() -> bool {
    u64 len = 0;
    if (!get_u64(is, len)) {
      frame_status = fail(CheckpointErrorCode::ShortRead, offset,
                          "stream ended inside section length");
      return false;
    }
    if (len > ckpt::kMaxSectionBytes) {
      frame_status =
          fail(CheckpointErrorCode::SectionTooLarge, offset,
               std::to_string(len) + " bytes exceeds section cap");
      return false;
    }
    offset += 8;
    u64 crc_word = 0;
    if (!get_u64(is, crc_word)) {
      frame_status = fail(CheckpointErrorCode::ShortRead, offset,
                          "stream ended inside section crc");
      return false;
    }
    if (crc_word > 0xffffffffull) {
      frame_status = fail(CheckpointErrorCode::BadFieldValue, offset,
                          "crc word out of range");
      return false;
    }
    offset += 8;
    payload_off = offset;
    payload.clear();
    u64 got = 0;
    while (got < len) {
      constexpr u64 kChunk = u64{1} << 20;
      const usize chunk = static_cast<usize>(std::min(len - got, kChunk));
      const usize old_size = payload.size();
      payload.resize(old_size + chunk);
      is.read(payload.data() + old_size,
              static_cast<std::streamsize>(chunk));
      const u64 n = static_cast<u64>(is.gcount());
      if (n < chunk) {
        frame_status = fail(CheckpointErrorCode::ShortRead,
                            payload_off + got + n,
                            "stream ended inside section payload");
        return false;
      }
      got += n;
    }
    offset += len;
    if (payload_crc(payload) != static_cast<u32>(crc_word)) {
      frame_status = fail(CheckpointErrorCode::SectionCrcMismatch,
                          payload_off, "payload fails its crc32k");
      return false;
    }
    return true;
  };

  // Read one mandatory section: type word, then frame body.
  const auto read_section = [&](u32 expected) -> bool {
    u64 type_word = 0;
    if (!get_u64(is, type_word)) {
      cur_section = expected;
      frame_status = fail(CheckpointErrorCode::ShortRead, offset,
                          "stream ended at section header");
      return false;
    }
    if (type_word != expected) {
      cur_section = expected;
      const char* found =
          type_word <= 0xffffffffull
              ? ckpt::section_name(static_cast<u32>(type_word))
              : "?";
      frame_status = fail(CheckpointErrorCode::BadSectionType, offset,
                          std::string("expected ") +
                              ckpt::section_name(expected) + ", found " +
                              found);
      return false;
    }
    cur_section = expected;
    offset += 8;
    return read_frame_body();
  };

  std::istringstream ps;
  const auto open_payload = [&]() {
    ps.clear();
    ps.str(payload);
  };
  // A failure while decoding a CRC-verified payload is never stream
  // truncation of the container; distinguish a payload that ran out of
  // bytes (ShortRead) from a decoded value that failed validation.
  const auto payload_fail = [&](const char* what) {
    const auto pos = ps.tellg();
    const u64 at =
        payload_off + (pos >= 0 ? static_cast<u64>(pos) : payload.size());
    const CheckpointErrorCode code = ps.eof()
                                         ? CheckpointErrorCode::ShortRead
                                         : CheckpointErrorCode::BadFieldValue;
    return fail(code, at, what);
  };
  const auto payload_drained = [&]() {
    return ps.peek() == std::istringstream::traits_type::eof();
  };

  // CFG ----------------------------------------------------------------
  if (!read_section(ckpt::kSectionConfig)) return frame_status;
  open_payload();
  SimConfig config;
  if (!get_u32(ps, config.num_devices) ||
      !get_device_config(ps, config.device, version)) {
    return payload_fail("config block");
  }
  if (!payload_drained()) return payload_fail("trailing bytes after config");
  // Validate before sizing anything from file-supplied values: a hostile
  // device count must not reach the Topology/Device allocators.
  std::string diag;
  if (!ok(config.validate(&diag))) {
    return fail(CheckpointErrorCode::BadFieldValue, payload_off, diag);
  }

  // TOPO ---------------------------------------------------------------
  if (!read_section(ckpt::kSectionTopology)) return frame_status;
  open_payload();
  u32 topo_devices = 0, topo_links = 0;
  if (!get_u32(ps, topo_devices) || !get_u32(ps, topo_links)) {
    return payload_fail("topology header");
  }
  if (topo_devices != config.num_devices ||
      topo_links != config.device.num_links) {
    return fail(CheckpointErrorCode::BadFieldValue, payload_off,
                "topology shape disagrees with config");
  }
  Topology topo(topo_devices, topo_links);
  for (u32 d = 0; d < topo_devices; ++d) {
    for (u32 l = 0; l < topo_links; ++l) {
      u8 kind = 0;
      u32 peer_dev = 0, peer_link = 0;
      if (!get_u8(ps, kind) || !get_u32(ps, peer_dev) ||
          !get_u32(ps, peer_link)) {
        return payload_fail("topology endpoint");
      }
      switch (static_cast<EndpointKind>(kind)) {
        case EndpointKind::Unconnected:
          break;
        case EndpointKind::Host:
          if (!ok(topo.connect_host(CubeId{d}, LinkId{l}))) {
            return fail(CheckpointErrorCode::BadFieldValue, payload_off,
                        "host endpoint rejected");
          }
          break;
        case EndpointKind::Device:
          // connect() wires both directions; only apply the "forward" edge.
          if (d < peer_dev || (d == peer_dev && l < peer_link)) {
            if (!ok(topo.connect(CubeId{d}, LinkId{l}, CubeId{peer_dev},
                                 LinkId{peer_link}))) {
              return fail(CheckpointErrorCode::BadFieldValue, payload_off,
                          "device endpoint rejected");
            }
          }
          break;
        default:
          return fail(CheckpointErrorCode::BadFieldValue, payload_off,
                      "unknown endpoint kind");
      }
    }
  }
  if (!payload_drained()) {
    return payload_fail("trailing bytes after topology");
  }

  // The execution knobs are not serialized, so a restore keeps the live
  // ones: those of the last init(), or of preset_execution_knobs() before
  // the first (the defaults when neither ran).
  copy_execution_knobs(config.device, config_.device);
  const Status init_status = init(config, std::move(topo));
  if (!ok(init_status)) {
    (void)fail(CheckpointErrorCode::BadFieldValue, payload_off,
               "init rejected restored configuration");
    return init_status;
  }

  // CLK ----------------------------------------------------------------
  if (!read_section(ckpt::kSectionClock)) return frame_status;
  open_payload();
  if (!get_u64(ps, cycle_)) return payload_fail("clock");
  if (!payload_drained()) return payload_fail("trailing bytes after clock");

  // DEVC × num_devices -------------------------------------------------
  const EntryContext entries{custom_, config_.num_devices,
                             config_.device.num_links};
  for (auto& dev_ptr : devices_) {
    if (!read_section(ckpt::kSectionDevice)) return frame_status;
    open_payload();
    const char* what = "device block";
    if (!get_device_block(ps, *dev_ptr, version, entries, &what)) {
      return payload_fail(what);
    }
    if (!payload_drained()) {
      return payload_fail("trailing bytes after device block");
    }
  }

  // WDOG ---------------------------------------------------------------
  if (!read_section(ckpt::kSectionWatchdog)) return frame_status;
  open_payload();
  bool fired = false;
  if (!get_flag(ps, fired) || !get_u32(ps, watchdog_stall_cycles_) ||
      !get_u64(ps, watchdog_fingerprint_)) {
    return payload_fail("watchdog tail");
  }
  if (!payload_drained()) {
    return payload_fail("trailing bytes after watchdog");
  }
  watchdog_fired_ = fired;
  watchdog_report_ = watchdog_fired_ ? build_watchdog_report() : std::string{};

  // CHAO (mandatory in v8), optional HOST, then trailer -----------------
  cur_section = 0;
  u64 tail_word = 0;
  if (!get_u64(is, tail_word)) {
    return fail(CheckpointErrorCode::TrailerMissing, offset,
                "stream ended before trailer");
  }
  if (version >= 8 && tail_word != ckpt::kSectionChaos) {
    return fail(CheckpointErrorCode::BadSectionType, offset,
                "v8 stream is missing its chaos section");
  }
  // Version-gated both ways: a pre-v8 stream carrying a CHAO section is a
  // forgery (e.g. a relabeled version word), not a legal layout.
  if (version >= 8 && tail_word == ckpt::kSectionChaos) {
    cur_section = ckpt::kSectionChaos;
    offset += 8;
    if (!read_frame_body()) return frame_status;
    open_payload();
    u64 stored_crc = 0, cursor = 0, events_applied = 0, invariant_checks = 0;
    bool ht_active = false;
    u64 ht_value = 0;
    u32 base_ppm = 0, base_burst = 0, base_sbe = 0, base_dbe = 0;
    u64 event_count = 0;
    if (!get_u64(ps, stored_crc) || !get_u64(ps, cursor) ||
        !get_u64(ps, events_applied) || !get_u64(ps, invariant_checks) ||
        !get_flag(ps, ht_active) || !get_u64(ps, ht_value) ||
        !get_u32(ps, base_ppm) || !get_u32(ps, base_burst) ||
        !get_u32(ps, base_sbe) || !get_u32(ps, base_dbe) ||
        !get_u64(ps, event_count)) {
      return payload_fail("chaos campaign header");
    }
    if (event_count > kMaxChaosEvents) {
      return payload_fail("chaos event count out of range");
    }
    if (cursor > event_count) {
      return payload_fail("chaos cursor runs past the plan");
    }
    ChaosPlan plan;
    plan.events.reserve(static_cast<usize>(event_count));
    for (u64 i = 0; i < event_count; ++i) {
      ChaosEvent ev;
      if (!get_u64(ps, ev.cycle) ||
          !get_enum(ps, ev.action, ChaosAction::BreakInvariant) ||
          !get_u64(ps, ev.a) || !get_u64(ps, ev.b) ||
          !get_flag(ps, ev.restore) || !get_u32(ps, ev.line)) {
        return payload_fail("chaos event record");
      }
      plan.events.push_back(ev);
    }
    if (!payload_drained()) {
      return payload_fail("trailing bytes after chaos campaign");
    }
    if (chaos_plan_crc(plan) != stored_crc) {
      return payload_fail("chaos plan fails its own crc");
    }
    if (event_count == 0) {
      // No campaign was armed at save time.  The payload is a fixed
      // pristine form; anything else is bit damage, not a legal state.
      if (events_applied != 0 || invariant_checks != 0 || ht_active ||
          ht_value != 0 || base_ppm != 0 || base_burst != 0 ||
          base_sbe != 0 || base_dbe != 0) {
        return payload_fail("empty chaos campaign is not pristine");
      }
      // No engine to rebuild: the checker (if chaos_invariants is set on
      // the live config) was already instantiated by init.
    } else {
      // Rebuild the engine self-contained.  arm() re-validates structural
      // indices against the restored configuration, and the baselines are
      // overwritten afterwards because the live config restored from CFG
      // already carries mid-campaign mutated rates.
      chaos_ = std::make_unique<ChaosEngine>(config_.device);
      chaos_->restore_baseline(base_ppm, base_burst, base_sbe, base_dbe);
      std::string chaos_diag;
      if (!ok(chaos_->arm(std::move(plan), config_.device, &chaos_diag))) {
        return fail(CheckpointErrorCode::BadFieldValue, payload_off,
                    "chaos plan rejected: " + chaos_diag);
      }
      if (!ok(chaos_->restore_progress(cursor, events_applied,
                                       invariant_checks, ht_active,
                                       ht_value))) {
        return payload_fail("chaos campaign progress rejected");
      }
    }
    cur_section = 0;
    if (!get_u64(is, tail_word)) {
      return fail(CheckpointErrorCode::TrailerMissing, offset,
                  "stream ended before trailer");
    }
  }
  if (tail_word == ckpt::kSectionHost) {
    cur_section = ckpt::kSectionHost;
    offset += 8;
    if (!read_frame_body()) return frame_status;
    if (host_blob_out != nullptr) *host_blob_out = payload;
    cur_section = 0;
    if (!get_u64(is, tail_word)) {
      return fail(CheckpointErrorCode::TrailerMissing, offset,
                  "stream ended before trailer");
    }
  }
  if (tail_word != kTrailerWord) {
    return fail(CheckpointErrorCode::TrailerMissing, offset,
                "expected trailer magic");
  }

  return Status::Ok;
}

// ---- file entry points -----------------------------------------------------

Status Simulator::save_checkpoint_file(const std::string& path,
                                       CheckpointError* err,
                                       std::string_view host_blob) const {
  std::ostringstream os;
  const Status st = save_checkpoint(os, err, host_blob);
  if (!ok(st)) return st;
  const std::string bytes = os.str();
  std::string io_detail;
  if (!io::atomic_write_file(path, bytes.data(), bytes.size(),
                             &io_detail)) {
    if (err != nullptr) {
      *err = CheckpointError{};
      err->code = CheckpointErrorCode::WriteFailed;
      err->detail = path + ": " + io_detail;
    }
    return Status::Internal;
  }
  return Status::Ok;
}

Status Simulator::restore_checkpoint_file(const std::string& path,
                                          CheckpointError* err,
                                          std::string* host_blob_out) {
  std::string bytes;
  std::string io_detail;
  // The cap only bounds what we buffer; restore itself enforces the
  // per-section limits.
  if (!io::read_file(path, bytes, u64{1} << 33, &io_detail)) {
    if (err != nullptr) {
      *err = CheckpointError{};
      err->code = CheckpointErrorCode::IoError;
      err->detail = path + ": " + io_detail;
    }
    return Status::Internal;
  }
  std::istringstream is(std::move(bytes));
  return restore_checkpoint(is, err, host_blob_out);
}

// ---- generation directories ------------------------------------------------

std::string checkpoint_generation_path(const std::string& dir, u64 gen) {
  char name[32];
  std::snprintf(name, sizeof name, "ckpt-%012llu.bin",
                static_cast<unsigned long long>(gen));
  return dir + "/" + name;
}

std::vector<CheckpointGeneration> list_checkpoint_generations(
    const std::string& dir) {
  std::vector<CheckpointGeneration> gens;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return gens;
  for (const auto& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kPrefix = "ckpt-";
    constexpr std::string_view kSuffix = ".bin";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    if (digits.empty() || digits.size() > 20 ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long gen = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') continue;
    gens.push_back(CheckpointGeneration{static_cast<u64>(gen),
                                        entry.path().string()});
  }
  std::sort(gens.begin(), gens.end(),
            [](const CheckpointGeneration& a, const CheckpointGeneration& b) {
              return a.gen < b.gen;
            });
  return gens;
}

void prune_checkpoint_generations(const std::string& dir, u32 keep) {
  if (keep == 0) return;
  const std::vector<CheckpointGeneration> gens =
      list_checkpoint_generations(dir);
  if (gens.size() <= keep) return;
  for (usize i = 0; i + keep < gens.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(gens[i].path, ec);
  }
}

Status resume_from_directory(Simulator& sim, const std::string& dir,
                             u64* gen_out, std::string* host_blob_out,
                             CheckpointError* err) {
  const std::vector<CheckpointGeneration> gens =
      list_checkpoint_generations(dir);
  if (gens.empty()) {
    if (err != nullptr) {
      *err = CheckpointError{};
      err->code = CheckpointErrorCode::IoError;
      err->detail = "no checkpoint generations in " + dir;
    }
    return Status::NoResponse;
  }
  CheckpointError newest_err;
  Status newest_status = Status::MalformedPacket;
  bool newest = true;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    CheckpointError gen_err;
    std::string blob;
    const Status st = sim.restore_checkpoint_file(it->path, &gen_err, &blob);
    if (ok(st)) {
      if (gen_out != nullptr) *gen_out = it->gen;
      if (host_blob_out != nullptr) *host_blob_out = std::move(blob);
      if (err != nullptr) *err = CheckpointError{};
      return Status::Ok;
    }
    if (newest) {
      newest_err = std::move(gen_err);
      newest_err.detail =
          it->path + ": " +
          (newest_err.detail.empty() ? to_string(newest_err.code)
                                     : newest_err.detail);
      newest_status = st;
      newest = false;
    }
  }
  if (err != nullptr) *err = std::move(newest_err);
  return newest_status;
}

}  // namespace hmcsim
