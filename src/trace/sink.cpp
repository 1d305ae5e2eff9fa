#include "trace/sink.hpp"

#include <ostream>
#include <sstream>

namespace hmcsim {

std::string_view to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::BankConflict: return "BANK_CONFLICT";
    case TraceEvent::XbarRqstStall: return "XBAR_RQST_STALL";
    case TraceEvent::XbarRspStall: return "XBAR_RSP_STALL";
    case TraceEvent::LatencyPenalty: return "LATENCY_PENALTY";
    case TraceEvent::Misroute: return "MISROUTE";
    case TraceEvent::VaultRspStall: return "VAULT_RSP_STALL";
    case TraceEvent::ReadRequest: return "RD_REQUEST";
    case TraceEvent::WriteRequest: return "WR_REQUEST";
    case TraceEvent::AtomicRequest: return "ATOMIC_REQUEST";
    case TraceEvent::ModeRequest: return "MODE_REQUEST";
    case TraceEvent::CustomRequest: return "CMC_REQUEST";
    case TraceEvent::ResponseRegistered: return "RESPONSE";
    case TraceEvent::ErrorResponse: return "ERROR_RESPONSE";
    case TraceEvent::RouteHop: return "ROUTE_HOP";
    case TraceEvent::PacketSend: return "SEND";
    case TraceEvent::PacketRecv: return "RECV";
    case TraceEvent::VaultArrival: return "VAULT_ARRIVAL";
    case TraceEvent::LinkIrtry: return "LINK_IRTRY";
    case TraceEvent::LinkRetrain: return "LINK_RETRAIN";
    case TraceEvent::LinkFailed: return "LINK_FAILED";
    case TraceEvent::RasSbe: return "RAS_SBE";
    case TraceEvent::RasDbe: return "RAS_DBE";
    case TraceEvent::VaultFailed: return "VAULT_FAILED";
    case TraceEvent::WatchdogArm: return "WATCHDOG_ARM";
    case TraceEvent::WatchdogFire: return "WATCHDOG_FIRE";
    case TraceEvent::FfSkipSpan: return "FF_SKIP_SPAN";
    case TraceEvent::Count: break;
  }
  return "UNKNOWN";
}

namespace {

void append_coord(std::ostringstream& os, u32 value) {
  if (value == kNoCoord) {
    os << '-';
  } else {
    os << value;
  }
}

}  // namespace

std::string TextSink::format(const TraceRecord& rec) {
  std::ostringstream os;
  os << "HMCSIM_TRACE : " << rec.cycle << " : s" << static_cast<int>(rec.stage)
     << " : " << to_string(rec.event) << " : ";
  append_coord(os, rec.dev);
  os << ':';
  append_coord(os, rec.link);
  os << ':';
  append_coord(os, rec.quad);
  os << ':';
  append_coord(os, rec.vault);
  os << ':';
  append_coord(os, rec.bank);
  os << " : 0x" << std::hex << rec.addr << std::dec << " : " << rec.tag
     << " : " << to_string(rec.cmd);
  return os.str();
}

void TextSink::record(const TraceRecord& rec) {
  *os_ << format(rec) << '\n';
}

void TextSink::flush() { os_->flush(); }

}  // namespace hmcsim
