#include "profile/telemetry.hpp"

#include <ostream>

namespace hmcsim {

const char* telemetry_track_name(TelemetryTrack track) {
  switch (track) {
    case TelemetryTrack::VaultRqst:
      return "vault_rqst";
    case TelemetryTrack::VaultRsp:
      return "vault_rsp";
    case TelemetryTrack::XbarRqst:
      return "xbar_rqst";
    case TelemetryTrack::XbarRsp:
      return "xbar_rsp";
    case TelemetryTrack::LinkTokens:
      return "link_token_deficit";
    case TelemetryTrack::LinkRetryBuf:
      return "link_retry_buf";
  }
  return "unknown";
}

Telemetry::Telemetry(u32 num_devices) {
  for (auto& family : tracks_) family.assign(num_devices, OccupancyTrack{});
}

void Telemetry::reset() {
  const u32 devices = num_devices();
  for (auto& family : tracks_) family.assign(devices, OccupancyTrack{});
  host_tags_ = OccupancyTrack{};
  rows_.clear();
}

void Telemetry::write_csv(std::ostream& os) const {
  os << "cycle,link_rqst,link_rsp,vault_rqst,vault_rsp,mode_rsp,"
        "bank_conflicts,xbar_rqst_stalls,xbar_rsp_stalls,vault_rsp_stalls,"
        "send_stalls\n";
  for (const TelemetryRow& r : rows_) {
    os << r.cycle << ',' << r.link_rqst << ',' << r.link_rsp << ','
       << r.vault_rqst << ',' << r.vault_rsp << ',' << r.mode_rsp << ','
       << r.bank_conflicts << ',' << r.xbar_rqst_stalls << ','
       << r.xbar_rsp_stalls << ',' << r.vault_rsp_stalls << ','
       << r.send_stalls << '\n';
  }
}

}  // namespace hmcsim
