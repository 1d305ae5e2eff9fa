#include "trace/chrome.hpp"

#include <algorithm>
#include <ostream>
#include <string>

namespace hmcsim {

ChromeWriter::ChromeWriter(std::ostream& os) : os_(&os) {
  *os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

ChromeWriter::~ChromeWriter() { close(); }

std::ostream& ChromeWriter::event() {
  *os_ << (first_event_ ? "\n" : ",\n");
  first_event_ = false;
  return *os_;
}

void ChromeWriter::process_name(u32 pid, std::string_view name) {
  event() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"args\":{\"name\":\"" << name << "\"}}";
}

void ChromeWriter::thread_name(u32 pid, u32 tid, std::string_view name) {
  event() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << name
          << "\"}}";
}

void ChromeWriter::close() {
  if (closed_) return;
  closed_ = true;
  *os_ << "\n]}\n";
  os_->flush();
}

void ChromeTraceSink::ensure_track_metadata(u32 dev, u32 tid,
                                            const char* kind, u32 index) {
  const u64 key = (u64{dev} << 32) | tid;
  if (std::find(named_tracks_.begin(), named_tracks_.end(), key) !=
      named_tracks_.end()) {
    return;
  }
  named_tracks_.push_back(key);
  out_.thread_name(dev, tid, std::string(kind) + ' ' + std::to_string(index));
  // Name the process once, keyed as tid ~0 (never used by a real track).
  const u64 dev_key = (u64{dev} << 32) | 0xffffffffull;
  if (std::find(named_tracks_.begin(), named_tracks_.end(), dev_key) ==
      named_tracks_.end()) {
    named_tracks_.push_back(dev_key);
    out_.process_name(dev, "cube " + std::to_string(dev));
  }
}

void ChromeTraceSink::emit_event(const char* name, char phase, Cycle ts,
                                 Cycle dur, u32 pid, u32 tid,
                                 const PacketLifecycle& lc, u64 flow_id,
                                 bool flow_end) {
  std::ostream& os = out_.event();
  os << "{\"name\":\"" << name << "\",\"cat\":\"packet\",\"ph\":\"" << phase
     << "\",\"ts\":" << ts << ",\"pid\":" << pid << ",\"tid\":" << tid;
  if (phase == 'X') {
    os << ",\"dur\":" << dur << ",\"args\":{\"tag\":" << lc.tag
       << ",\"cmd\":\"" << to_string(lc.cmd) << "\",\"vault\":" << lc.vault
       << "}";
  } else {
    os << ",\"id\":" << flow_id;
    if (flow_end) os << ",\"bp\":\"e\"";
  }
  os << "}";
}

void ChromeTraceSink::complete(const PacketLifecycle& lc) {
  if (out_.closed()) return;
  const u32 link_tid = lc.link;
  const u32 vault_tid = kVaultTidBase + lc.vault;
  ensure_track_metadata(lc.dev, link_tid, "link", lc.link);
  ensure_track_metadata(lc.dev, vault_tid, "vault", lc.vault);

  const Cycle xbar = segment_cycles(lc, LifecycleSegment::Xbar);
  const Cycle queue = segment_cycles(lc, LifecycleSegment::VaultQueue);
  const Cycle conflict = segment_cycles(lc, LifecycleSegment::BankConflict);
  const Cycle response = segment_cycles(lc, LifecycleSegment::Response);
  const Cycle drain = segment_cycles(lc, LifecycleSegment::Drain);

  // Duration chain: link track holds the crossbar and drain phases, the
  // vault track holds everything between.
  emit_event("xbar", 'X', lc.inject, xbar, lc.dev, link_tid, lc, 0, false);
  emit_event("vault_queue", 'X', lc.vault_arrive, queue, lc.dev, vault_tid,
             lc, 0, false);
  if (conflict != 0) {
    emit_event("bank_conflict", 'X', lc.first_conflict, conflict, lc.dev,
               vault_tid, lc, 0, false);
  }
  emit_event("response", 'X', lc.retire, response, lc.dev, vault_tid, lc, 0,
             false);
  emit_event("drain", 'X', lc.rsp_register, drain, lc.dev, link_tid, lc, 0,
             false);

  // Flow arrows: link -> vault at vault arrival, vault -> link at response
  // registration.  Two distinct ids per packet.
  const u64 flow = packets_ * 2;
  emit_event("pkt", 's', lc.inject, 0, lc.dev, link_tid, lc, flow, false);
  emit_event("pkt", 'f', lc.vault_arrive, 0, lc.dev, vault_tid, lc, flow,
             true);
  emit_event("pkt", 's', lc.retire, 0, lc.dev, vault_tid, lc, flow + 1,
             false);
  emit_event("pkt", 'f', lc.rsp_register, 0, lc.dev, link_tid, lc, flow + 1,
             true);

  ++packets_;
}

}  // namespace hmcsim
