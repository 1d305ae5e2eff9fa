#include "profile/flight_recorder.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "trace/chrome.hpp"

namespace hmcsim {

FlightRecorder::FlightRecorder(u32 num_devices, u32 depth)
    : depth_(std::max(depth, 1u)), rings_(num_devices, TraceRing(depth_)) {}

void FlightRecorder::record(const TraceRecord& rec) {
  if (rec.dev != kNoCoord) {
    rings_[rec.dev].push(rec);
    return;
  }
  for (TraceRing& ring : rings_) ring.push(rec);
}

void FlightRecorder::clear() {
  for (TraceRing& ring : rings_) ring.clear();
}

u32 FlightRecorder::unit_of(const TraceRecord& rec) {
  if (rec.link != kNoCoord) return rec.link;
  if (rec.vault != kNoCoord) return rec.vault;
  return 0;
}

void FlightRecorder::dump_text(std::ostream& os) const {
  for (u32 dev = 0; dev < num_devices(); ++dev) {
    const std::vector<TraceRecord> records = snapshot(dev);
    os << "flight recorder dev " << dev << ": " << records.size()
       << " retained of " << recorded(dev) << " recorded (depth " << depth_
       << ")\n";
    for (const TraceRecord& rec : records) {
      os << "  cycle " << rec.cycle << "  " << to_string(rec.event);
      if (rec.stage != 0) os << "  stage=" << u32{rec.stage};
      os << "  unit=" << unit_of(rec) << "  arg=" << rec.arg << "\n";
    }
  }
}

void FlightRecorder::dump_chrome(std::ostream& os) const {
  ChromeWriter out(os);
  for (u32 dev = 0; dev < num_devices(); ++dev) {
    out.process_name(dev, "cube " + std::to_string(dev) + " flight recorder");
    for (const TraceRecord& rec : snapshot(dev)) {
      std::ostream& ev = out.event();
      if (rec.event == TraceEvent::FfSkipSpan) {
        // The span ends at rec.cycle and covers the previous `arg` cycles.
        const Cycle start = rec.cycle >= rec.arg ? rec.cycle - rec.arg : 0;
        ev << "{\"name\":\"" << to_string(rec.event)
           << "\",\"ph\":\"X\",\"ts\":" << start << ",\"dur\":" << rec.arg
           << ",\"pid\":" << dev << ",\"tid\":" << unit_of(rec)
           << ",\"args\":{\"cycles\":" << rec.arg << "}}";
      } else {
        ev << "{\"name\":\"" << to_string(rec.event)
           << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << rec.cycle
           << ",\"pid\":" << dev << ",\"tid\":" << unit_of(rec)
           << ",\"args\":{\"stage\":" << u32{rec.stage}
           << ",\"arg\":" << rec.arg << "}}";
      }
    }
  }
  out.close();
}

}  // namespace hmcsim
