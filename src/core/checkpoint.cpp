// Checkpoint serialization for Simulator (see simulator.hpp for the API
// contract, checkpoint.hpp for the robustness layer, and docs/FORMATS.md §5
// for the format and its version history).  Since v6 the body is
// section-framed:
//
//   magic "HMCSIMCK" | version u32
//   section*:  type u32 | payload_len u64 | payload crc32k u32 | payload
//   trailer magic "HMCSIMEN"
//
// Mandatory section order: CFG, TOPO, CLK, DEVC (once per device), WDOG,
// CHAO (mandatory since v8), an optional HOST blob (workload/driver.hpp,
// passed through), then the trailer.  Every value is one 8-byte
// little-endian word (io/word_codec.hpp), and each payload record's words
// are listed once, by its layout::io() below: save and restore walk the
// same function.
//
// Restore is hostile-input safe: every failure mode — bad magic, short
// read, CRC mismatch, a word that does not fit its field, an impossible
// state, unknown version — becomes a typed CheckpointError, and no input
// can make it allocate unboundedly (section lengths are capped and
// payloads are read in bounded chunks, so a forged length only ever costs
// the bytes actually present).
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/simulator.hpp"
#include "io/atomic_file.hpp"
#include "io/word_codec.hpp"
#include "packet/crc32.hpp"

namespace hmcsim {
namespace {

using io::Record;
using io::WordReader;
using io::WordWriter;

// The container's magic and trailer, one word each.
constexpr u64 kMagicWord = 0x4b434d4953434d48ull;    // "HMCSIMCK" LE
constexpr u64 kTrailerWord = 0x4e454d4953434d48ull;  // "HMCSIMEN" LE

// Restore reads versions 6 through 8, the framed container; the unframed
// v2-v5 streams could not tell bit-rot from data and fail in the preamble
// with UnsupportedVersion, like any version outside the range.  Fields a
// readable version lacks keep their init() values: v6 restores keep the
// default hmc_dram backend with power-on backend state.  Save always writes
// the current version.  Execution knobs (fast_forward, the observation and
// snapshot cadences, chaos_invariants) are never serialized, so the bytes
// are identical whatever the execution strategy.  Committed fixtures for
// every readable version live under tests/golden/checkpoints/ and are
// replayed by test_checkpoint_compat.
constexpr u32 kVersion = 8;
constexpr u32 kMinVersion = 6;
// Per-vault backend override list cap (config_file caps indices below 64,
// so more entries can never validate): it bounds what a forged CFG
// payload can make restore allocate.
constexpr u64 kMaxVaultOverrides = 64;

u32 payload_crc(std::string_view payload) {
  return crc::crc32k(std::span<const u8>(
      reinterpret_cast<const u8*>(payload.data()), payload.size()));
}

/// What a DEVC walk needs besides the archive: the format version (save
/// writes the current one); what a restored queue entry is checked
/// against, since its routing fields index arrays on the next clock (a
/// response drains into dev.links[home_link]) and a value past the
/// topology must be rejected; and, for restore's error message, the
/// sub-record reached.
struct DevcContext {
  u32 version;
  const CustomCommandSet& custom;
  u32 devices;
  u32 links;
  const char* what{"device block"};
};

/// One record of the DRAM fault sidecar (mem/storage.hpp).
struct FaultRecord {
  u64 word{0};
  u64 data_flips{0};
  u8 check_flips{0};
};

/// The CHAO payload.  The defaults are the pristine form written when no
/// campaign is armed: the empty plan's CRC and every other word zero.
struct ChaosRecord {
  u64 plan_crc{chaos_plan_crc(ChaosPlan{})};
  u64 cursor{0};
  u64 events_applied{0};
  u64 invariant_checks{0};
  bool ht_active{false};
  u64 ht_value{0};
  u32 base_ppm{0};
  u32 base_burst{0};
  u32 base_sbe{0};
  u32 base_dbe{0};
  ChaosPlan plan;
};

// ---- record layouts --------------------------------------------------------
//
// Each io() states one record's words once, in wire order: save walks it
// with a WordWriter, restore with a WordReader (io/word_codec.hpp), which
// refuses a word that does not fit its field.  Where the two directions
// differ, a part is a pair of overloads on the archive type or an
// `Ar::kReading` branch.
namespace layout {

template <class Ar, Record<PacketBuffer> P>
bool io(Ar& ar, P& pkt) {
  u32 flits = pkt.flits;
  if (!ar(flits)) return false;
  if constexpr (Ar::kReading) {
    if (flits < spec::kMinPacketFlits || flits > spec::kMaxPacketFlits) {
      return false;
    }
    pkt = PacketBuffer{};
    pkt.flits = flits;
  }
  return io::each(ar, std::span(pkt.words.data(), pkt.word_count()));
}

template <class Ar, Record<QueueStats> S>
bool io(Ar& ar, S& s) {
  return ar(s.total_pushes) && ar(s.total_pops) && ar(s.rejected_full) &&
         ar(s.high_water);
}

template <class Ar, Record<PacketLifecycle> L>
bool io(Ar& ar, L& lc) {
  return ar(lc.inject) && ar(lc.vault_arrive) && ar(lc.first_conflict) &&
         ar(lc.retire) && ar(lc.rsp_register) && ar(lc.drain) &&
         ar(lc.dev) && ar(lc.vault) && ar(lc.link) && ar(lc.tag) &&
         ar(lc.cmd, kMaxRawCommand);
}

/// A queued request: the raw packet plus routing metadata.  Restore
/// re-derives the decoded request fields from the packet, the single
/// source of truth.
template <class Ar, Record<RequestEntry> E>
bool io(Ar& ar, E& e, const DevcContext& ctx) {
  if (!io(ar, e.pkt) || !ar(e.ready_cycle) || !ar(e.home_dev) ||
      !ar(e.home_link) || !ar(e.ingress_link) || !ar(e.penalty_applied) ||
      !ar(e.retries) || !io(ar, e.life)) {
    return false;
  }
  if constexpr (Ar::kReading) {
    if (e.home_dev >= ctx.devices || e.home_link >= ctx.links ||
        e.ingress_link >= ctx.links) {
      return false;
    }
    const u8 raw_cmd = static_cast<u8>(extract(e.pkt.header(), 0, 6));
    if (const CustomCommandDef* def = ctx.custom.find(raw_cmd)) {
      e.custom = def;
      return ok(decode_custom_request(e.pkt, *def, e.req));
    }
    return ok(decode_request(e.pkt, e.req));
  }
  return true;
}

template <class Ar, Record<ResponseEntry> E>
bool io(Ar& ar, E& e, const DevcContext& ctx) {
  if (!io(ar, e.pkt) || !ar(e.ready_cycle) || !ar(e.home_dev) ||
      !ar(e.home_link) || !io(ar, e.life)) {
    return false;
  }
  if constexpr (Ar::kReading) {
    ResponseFields f;
    if (e.home_dev >= ctx.devices || e.home_link >= ctx.links ||
        !ok(decode_response(e.pkt, f))) {
      return false;
    }
    e.tag = f.tag;
    e.cmd = f.cmd;
  }
  return true;
}

/// A queue: its entry count, each entry oldest first, then its stats.
template <class Entry>
bool queue(WordWriter& ar, const BoundedQueue<Entry>& q,
           const DevcContext& ctx, const AddressMap* /*banks*/ = nullptr) {
  ar(q.size());
  for (const Entry& e : q) io(ar, e, ctx);
  return io(ar, q.stats());
}

/// Restore caps the count at the queue's capacity.  `banks` is set for a
/// vault request queue, whose entries are keyed by their bank as stage 2
/// keys them; every other queue keys its entries 0.
template <class Entry>
bool queue(WordReader& ar, BoundedQueue<Entry>& q, const DevcContext& ctx,
           const AddressMap* banks = nullptr) {
  u64 count = 0;
  if (!ar(count) || count > q.capacity()) return false;
  q.clear();
  for (u64 i = 0; i < count; ++i) {
    Entry e;
    if (!io(ar, e, ctx)) return false;
    u32 key = 0;
    if constexpr (std::is_same_v<Entry, RequestEntry>) {
      if (banks != nullptr) key = banks->bank_of(e.req.addr);
    }
    if (!q.push(std::move(e), key)) return false;
  }
  QueueStats stats;
  if (!io(ar, stats)) return false;
  q.restore_stats(stats);
  return true;
}

/// Per-link retry/token protocol state.  The held replay packet is only
/// present while the error-abort machine is mid-recovery.
template <class Ar, Record<LinkProtoState> S>
bool io(Ar& ar, S& st, const DevcContext& ctx) {
  return ar(st.tokens) && ar(st.tokens_debited) && ar(st.tokens_returned) &&
         ar(st.retry_buf_flits) && ar(st.tx_frp) && ar(st.rx_rrp) &&
         ar(st.tx_seq) && ar(st.rx_seq) && ar(st.retrain_until) &&
         ar(st.burst_remaining) && ar(st.fail_count) && ar(st.dead) &&
         ar(st.replay_pending) &&
         (!st.replay_pending || io(ar, st.replay, ctx));
}

template <class Ar, Record<LinkState> L>
bool io(Ar& ar, L& link, DevcContext& ctx) {
  ctx.what = "link queue";
  if (!queue(ar, link.rqst, ctx) || !queue(ar, link.rsp, ctx)) return false;
  ctx.what = "link budgets";
  if (!ar(link.rqst_flits_forwarded) || !ar(link.rsp_flits_forwarded) ||
      !ar(link.rqst_budget) || !ar(link.rsp_budget)) {
    return false;
  }
  ctx.what = "link protocol state";
  return io(ar, link.proto, ctx);
}

/// A generator travels as its state word.
template <class Ar, Record<SplitMix64> G>
bool io(Ar& ar, G& rng) {
  u64 state = rng.state();
  if (!ar(state)) return false;
  if constexpr (Ar::kReading) rng = SplitMix64(state);
  return true;
}

template <class Ar, Record<VaultState> V>
bool io(Ar& ar, V& vault, DevcContext& ctx, const AddressMap& banks) {
  ctx.what = "vault queue";
  if (!queue(ar, vault.rqst, ctx, &banks) || !queue(ar, vault.rsp, ctx)) {
    return false;
  }
  ctx.what = "bank timing";
  if (!io::each(ar, vault.bank_busy_until) ||
      !io::each(ar, vault.open_row)) {
    return false;
  }
  ctx.what = "vault rng";
  if (!io(ar, vault.dram_rng)) return false;
  // v6 predates timing frames: the vault keeps its power-on state.
  if (ctx.version < 7) return true;
  // The v7 frame: the vault's model kind, its state's byte length, then
  // pcm_like's write-gap deadline.  The vault was built from the restored
  // config, so the kind and the length must agree with it.
  ctx.what = "vault backend state";
  const bool pcm = vault.timing == TimingBackend::PcmLike;
  return ar.expect(static_cast<u64>(vault.timing)) &&
         ar.expect(pcm ? 8 : 0) && (!pcm || ar(vault.write_ok));
}

template <class Ar, Record<RegisterFile> F>
bool io(Ar& ar, F& regs) {
  RegisterFile::Snapshot snap = regs.snapshot();
  if (!io::each(ar, snap.values) ||
      !io::each(ar, snap.pending_self_clear)) {
    return false;
  }
  if constexpr (Ar::kReading) regs.restore(snap);
  return true;
}

/// Memory pages: a count, then (index, raw page bytes) per page, in the
/// store's ascending index order, so identical contents save identical
/// bytes.
bool pages(WordWriter& ar, const SparseStore& store) {
  ar(store.resident_pages());
  store.for_each_page([&ar](u64 index, std::span<const u8> bytes) {
    ar(index);
    ar.bytes(bytes.data(), bytes.size());
  });
  return true;
}

bool pages(WordReader& ar, SparseStore& store) {
  u64 count = 0;
  if (!ar(count)) return false;
  std::vector<u8> page(SparseStore::kPageBytes);
  for (u64 p = 0; p < count; ++p) {
    u64 index = 0;
    if (!ar(index) || !ar.bytes(page.data(), page.size()) ||
        !store.restore_page(index, page)) {
      return false;
    }
  }
  return true;
}

template <class Ar, Record<FaultRecord> F>
bool io(Ar& ar, F& f) {
  return ar(f.word) && ar(f.data_flips) && ar(f.check_flips);
}

/// The DRAM fault sidecar: a count, then one record per fault in ascending
/// word order.
bool faults(WordWriter& ar, const SparseStore& store) {
  ar(store.fault_count());
  store.for_each_fault([&ar](u64 word, u64 data_flips, u8 check_flips) {
    const FaultRecord f{word, data_flips, check_flips};
    io(ar, f);
  });
  return true;
}

bool faults(WordReader& ar, SparseStore& store) {
  u64 count = 0;
  if (!ar(count)) return false;
  for (u64 i = 0; i < count; ++i) {
    FaultRecord f;
    if (!io(ar, f) ||
        !store.restore_fault(f.word, f.data_flips, f.check_flips)) {
      return false;
    }
  }
  return true;
}

/// RAS state after the fault sidecar: degradation, error log, scrub cursor.
template <class Ar, Record<RasState> R>
bool io(Ar& ar, R& ras) {
  return ar(ras.failed_vaults) && io::each(ar, ras.vault_uncorrectable) &&
         ar(ras.scrub_cursor) && ar(ras.scrub_passes) &&
         ar(ras.last_error_addr) && ar(ras.last_error_stat);
}

template <class Ar, Record<DeviceStats> S>
bool io(Ar& ar, S& s, u32 version) {
  // v6 predates the last counter, pcm_write_throttle_stalls (v7).
  const usize count = std::size(kStatFields) - (version >= 7 ? 0 : 1);
  for (usize i = 0; i < count; ++i) {
    if (!ar(s.*kStatFields[i].member)) return false;
  }
  return true;
}

/// One DEVC section.  On a restore failure `ctx.what` names the sub-record
/// that could not be decoded.
template <class Ar, Record<Device> D>
bool io(Ar& ar, D& dev, DevcContext& ctx) {
  ctx.what = "device stats";
  if (!io(ar, dev.stats, ctx.version)) return false;
  ctx.what = "register snapshot";
  if (!io(ar, dev.regs)) return false;
  ctx.what = "memory page";
  if (!pages(ar, dev.store)) return false;
  for (auto& link : dev.links) {
    if (!io(ar, link, ctx)) return false;
  }
  for (auto& vault : dev.vaults) {
    if (!io(ar, vault, ctx, dev.address_map())) return false;
  }
  ctx.what = "mode response queue";
  if (!queue(ar, dev.mode_rsp, ctx)) return false;
  ctx.what = "fault sidecar";
  if (!io(ar, dev.fault_rng) || !faults(ar, dev.store)) return false;
  ctx.what = "ras counters";
  return io(ar, dev.ras);
}

/// The CFG section: the device count, every checkpointed kConfigFields word
/// in table order, then (v7) the per-vault backend override list.  Fields
/// newer than `version` keep their defaults: v6 restores keep the hmc_dram
/// backend and its parameter defaults.
template <class Ar, Record<SimConfig> C>
bool io(Ar& ar, C& c, u32 version) {
  if (!ar(c.num_devices)) return false;
  for (const ConfigField& f : kConfigFields) {
    if (!f.checkpointed() || f.since > version) continue;
    u64 word = f.get(c.device);
    if (!ar(word, f.max)) return false;
    if constexpr (Ar::kReading) f.set(c.device, word);
  }
  return version < 7 ||
         io::list(ar, c.device.vault_backends, kMaxVaultOverrides,
                  [&ar](auto& vb) {
                    return ar(vb.first) &&
                           ar(vb.second, TimingBackend::PcmLike);
                  });
}

/// One TOPO endpoint; restore rebuilds the topology from them with
/// connect().
template <class Ar, Record<LinkEndpoint> E>
bool io(Ar& ar, E& e) {
  return ar(e.kind, EndpointKind::Device) && ar(e.peer_dev) &&
         ar(e.peer_link);
}

template <class Ar, Record<ChaosEvent> E>
bool io(Ar& ar, E& ev) {
  return ar(ev.cycle) && ar(ev.action, ChaosAction::BreakInvariant) &&
         ar(ev.a) && ar(ev.b) && ar(ev.restore) && ar(ev.line);
}

/// The CHAO section: plan CRC, cursor and progress counters, the
/// host-timeout override, the four restore baselines, then the compiled
/// event list.
template <class Ar, Record<ChaosRecord> C>
bool io(Ar& ar, C& c) {
  return ar(c.plan_crc) && ar(c.cursor) && ar(c.events_applied) &&
         ar(c.invariant_checks) && ar(c.ht_active) && ar(c.ht_value) &&
         ar(c.base_ppm) && ar(c.base_burst) && ar(c.base_sbe) &&
         ar(c.base_dbe) &&
         io::list(ar, c.plan.events, kMaxChaosEvents,
                  [&ar](auto& ev) { return io(ar, ev); });
}

}  // namespace layout

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

template <class Ar, class Self>
bool Simulator::watchdog_io(Ar& ar, Self& sim) {
  return ar(sim.watchdog_fired_) && ar(sim.watchdog_stall_cycles_) &&
         ar(sim.watchdog_fingerprint_);
}

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

  WordWriter out(os);
  out.word(kMagicWord);
  out(kVersion);

  std::ostringstream sec;
  WordWriter w(sec);
  const auto emit = [&](u32 type) {
    const std::string_view payload = sec.view();
    out(type);
    out(payload.size());
    out(payload_crc(payload));
    out.bytes(payload.data(), payload.size());
    sec.str(std::string{});
    sec.clear();
  };

  layout::io(w, config_, kVersion);
  emit(ckpt::kSectionConfig);

  w(topo_.num_devices());
  w(topo_.links_per_device());
  for (u32 d = 0; d < topo_.num_devices(); ++d) {
    for (u32 l = 0; l < topo_.links_per_device(); ++l) {
      layout::io(w, topo_.endpoint(CubeId{d}, LinkId{l}));
    }
  }
  emit(ckpt::kSectionTopology);

  w(cycle_);
  emit(ckpt::kSectionClock);

  DevcContext devc{kVersion, custom_, config_.num_devices,
                   config_.device.num_links};
  for (const auto& dev_ptr : devices_) {
    layout::io(w, *dev_ptr, devc);
    emit(ckpt::kSectionDevice);
  }

  // Forward-progress watchdog.  The report is rebuilt on restore.
  watchdog_io(w, *this);
  emit(ckpt::kSectionWatchdog);

  // Chaos campaign (v8).  The section is self-contained (plan bytes travel
  // with the cursor) so a resume needs no side files, and the CRC lets a
  // re-passed --chaos-plan be verified against the checkpointed campaign.
  // With no campaign armed the payload is the pristine record rather than
  // being omitted: every v8 stream then carries bytes a v7 parser cannot
  // consume, so relabeling the version word can never turn one valid
  // stream into another.
  ChaosRecord chaos;
  if (chaos_ != nullptr && !chaos_->plan().empty()) {
    const DeviceConfig& base = chaos_->baseline();
    chaos = ChaosRecord{.plan_crc = chaos_->plan_crc(),
                        .cursor = chaos_->cursor(),
                        .events_applied = chaos_->events_applied(),
                        .invariant_checks = chaos_->invariant_checks(),
                        .ht_active = chaos_->host_timeout_active(),
                        .ht_value = chaos_->host_timeout_value(),
                        .base_ppm = base.link_error_rate_ppm,
                        .base_burst = base.link_error_burst_len,
                        .base_sbe = base.dram_sbe_rate_ppm,
                        .base_dbe = base.dram_dbe_rate_ppm,
                        .plan = chaos_->plan()};
  }
  layout::io(w, chaos);
  emit(ckpt::kSectionChaos);

  if (!host_blob.empty()) {
    w.bytes(host_blob.data(), host_blob.size());
    emit(ckpt::kSectionHost);
  }

  out.word(kTrailerWord);

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

  WordReader in(is);
  u64 magic = 0;
  if (!in.word(magic)) {
    return fail(CheckpointErrorCode::ShortRead, 0,
                "stream ended inside magic");
  }
  if (magic != kMagicWord) {
    return fail(CheckpointErrorCode::BadMagic, 0, "not a checkpoint stream");
  }
  u64 version_word = 0;
  if (!in.word(version_word)) {
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
  // The current section's payload, decoded through `r`.
  std::istringstream ps;
  WordReader r(ps);

  // Read length + CRC + payload for the section whose type word has
  // already been consumed.  Payload bytes are pulled in bounded chunks so a
  // forged length never drives a huge up-front allocation — memory grows
  // only with bytes actually present in the stream.
  const auto read_frame_body = [&]() -> bool {
    u64 len = 0;
    if (!in.word(len)) {
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
    if (!in.word(crc_word)) {
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
  // Hand a verified payload to `r`; the HOST blob is passed through as is.
  const auto open_payload = [&]() {
    ps.clear();
    ps.str(payload);
    return true;
  };

  // Read one mandatory section: type word, then frame body.
  const auto read_section = [&](u32 expected) -> bool {
    u64 type_word = 0;
    if (!in.word(type_word)) {
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
    return read_frame_body() && open_payload();
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
  SimConfig config;
  if (!layout::io(r, config, version)) return payload_fail("config block");
  if (!payload_drained()) return payload_fail("trailing bytes after config");
  // Validate before sizing anything from file-supplied values: a hostile
  // device count must not reach the Topology/Device allocators.
  std::string diag;
  if (!ok(config.validate(&diag))) {
    return fail(CheckpointErrorCode::BadFieldValue, payload_off, diag);
  }

  // TOPO ---------------------------------------------------------------
  if (!read_section(ckpt::kSectionTopology)) return frame_status;
  u32 topo_devices = 0, topo_links = 0;
  if (!r(topo_devices) || !r(topo_links)) {
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
      LinkEndpoint e;
      if (!layout::io(r, e)) return payload_fail("topology endpoint");
      switch (e.kind) {
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
          if (d < e.peer_dev || (d == e.peer_dev && l < e.peer_link)) {
            if (!ok(topo.connect(CubeId{d}, LinkId{l}, CubeId{e.peer_dev},
                                 LinkId{e.peer_link}))) {
              return fail(CheckpointErrorCode::BadFieldValue, payload_off,
                          "device endpoint rejected");
            }
          }
          break;
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
  if (!r(cycle_)) return payload_fail("clock");
  if (!payload_drained()) return payload_fail("trailing bytes after clock");

  // DEVC × num_devices -------------------------------------------------
  DevcContext devc{version, custom_, config_.num_devices,
                   config_.device.num_links};
  for (auto& dev_ptr : devices_) {
    if (!read_section(ckpt::kSectionDevice)) return frame_status;
    if (!layout::io(r, *dev_ptr, devc)) return payload_fail(devc.what);
    if (!payload_drained()) {
      return payload_fail("trailing bytes after device block");
    }
  }

  // WDOG ---------------------------------------------------------------
  if (!read_section(ckpt::kSectionWatchdog)) return frame_status;
  if (!watchdog_io(r, *this)) return payload_fail("watchdog tail");
  if (!payload_drained()) {
    return payload_fail("trailing bytes after watchdog");
  }
  watchdog_report_ = watchdog_fired_ ? build_watchdog_report() : std::string{};

  // CHAO (mandatory in v8), optional HOST, then trailer -----------------
  u64 tail_word = 0;
  // The next section's type word, or the trailer magic.
  const auto read_tail = [&]() {
    cur_section = 0;
    if (in.word(tail_word)) return true;
    frame_status = fail(CheckpointErrorCode::TrailerMissing, offset,
                        "stream ended before trailer");
    return false;
  };
  if (!read_tail()) return frame_status;
  // Version-gated both ways: a pre-v8 stream carrying a CHAO section is a
  // forgery (e.g. a relabeled version word), not a legal layout, and ends
  // up at the trailer check.
  if (version >= 8) {
    if (tail_word != ckpt::kSectionChaos) {
      return fail(CheckpointErrorCode::BadSectionType, offset,
                  "v8 stream is missing its chaos section");
    }
    cur_section = ckpt::kSectionChaos;
    offset += 8;
    if (!read_frame_body()) return frame_status;
    open_payload();
    ChaosRecord chaos;
    if (!layout::io(r, chaos)) return payload_fail("chaos campaign record");
    if (chaos.cursor > chaos.plan.events.size()) {
      return payload_fail("chaos cursor runs past the plan");
    }
    if (!payload_drained()) {
      return payload_fail("trailing bytes after chaos campaign");
    }
    if (chaos_plan_crc(chaos.plan) != chaos.plan_crc) {
      return payload_fail("chaos plan fails its own crc");
    }
    if (chaos.plan.empty()) {
      // No campaign was armed at save time.  The payload is the pristine
      // record; anything else is bit damage, not a legal state.  No engine
      // to rebuild: the checker (if chaos_invariants is set on the live
      // config) was already instantiated by init.
      static const std::string pristine = [] {
        const ChaosRecord empty;
        std::ostringstream os;
        WordWriter pw(os);
        layout::io(pw, empty);
        return os.str();
      }();
      if (payload != pristine) {
        return payload_fail("empty chaos campaign is not pristine");
      }
    } else {
      // Rebuild the engine self-contained.  arm() re-validates structural
      // indices against the restored configuration, and the baselines are
      // overwritten afterwards because the live config restored from CFG
      // already carries mid-campaign mutated rates.
      chaos_ = std::make_unique<ChaosEngine>(config_.device);
      chaos_->restore_baseline(chaos.base_ppm, chaos.base_burst,
                               chaos.base_sbe, chaos.base_dbe);
      std::string chaos_diag;
      if (!ok(chaos_->arm(std::move(chaos.plan), config_.device,
                          &chaos_diag))) {
        return fail(CheckpointErrorCode::BadFieldValue, payload_off,
                    "chaos plan rejected: " + chaos_diag);
      }
      if (!ok(chaos_->restore_progress(chaos.cursor, chaos.events_applied,
                                       chaos.invariant_checks,
                                       chaos.ht_active, chaos.ht_value))) {
        return payload_fail("chaos campaign progress rejected");
      }
    }
    if (!read_tail()) return frame_status;
  }
  if (tail_word == ckpt::kSectionHost) {
    cur_section = ckpt::kSectionHost;
    offset += 8;
    if (!read_frame_body()) return frame_status;
    if (host_blob_out != nullptr) *host_blob_out = payload;
    if (!read_tail()) return frame_status;
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
