// Post-mortem flight recorder: a trace sink that keeps a fixed-capacity
// ring of TraceRecords per device for link error-aborts (IRTRY), link
// retraining and death, RAS faults, vault degradation, watchdog
// transitions, crossbar and vault backpressure stalls, and fast-forward
// skip spans: the nine kinds of no trace level plus the two stalls.
//
// The simulator attaches it to its Tracer with the fixed kind set kKinds,
// so it records those kinds whatever the trace level.  It is pure
// observation: recording never influences simulation state, so runs with
// the recorder on are bit-identical to runs with it off (the differential
// harness proves this).  Each device owns an independent ring; once full,
// the oldest records are overwritten — the tail of history is exactly what
// a post-mortem wants.
//
// Records are cycle-stamped, not wall-clock-stamped, so the ring contents
// are themselves deterministic for a given workload.  Each record is filed
// under one unit: its link, else its vault, else 0.  Renders:
//   * text  — one line per record, chronological, for the watchdog report
//             and `hmcsim_run --flight-recorder=<path>`;
//   * Chrome trace — instant events on per-unit tracks (skip spans as
//             durations), loadable in chrome://tracing / Perfetto alongside
//             the packet-lifecycle export (trace/chrome.hpp).
#pragma once

#include <iosfwd>
#include <vector>

#include "trace/ring.hpp"
#include "trace/sink.hpp"

namespace hmcsim {

class FlightRecorder final : public TraceSink {
 public:
  /// The kinds the ring records: every kind of no trace level plus the two
  /// backpressure stalls.
  static constexpr TraceMask kKinds =
      trace_bit(TraceEvent::XbarRqstStall) |
      trace_bit(TraceEvent::VaultRspStall) |
      trace_bit(TraceEvent::LinkIrtry) | trace_bit(TraceEvent::LinkRetrain) |
      trace_bit(TraceEvent::LinkFailed) |
      trace_bit(TraceEvent::RasSbe) | trace_bit(TraceEvent::RasDbe) |
      trace_bit(TraceEvent::VaultFailed) |
      trace_bit(TraceEvent::WatchdogArm) |
      trace_bit(TraceEvent::WatchdogFire) | trace_bit(TraceEvent::FfSkipSpan);

  /// One ring of `depth` records per device.  depth is clamped to >= 1.
  FlightRecorder(u32 num_devices, u32 depth);

  [[nodiscard]] u32 num_devices() const {
    return static_cast<u32>(rings_.size());
  }
  [[nodiscard]] u32 depth() const { return depth_; }

  /// File a record on its device's ring; a record whose dev is kNoCoord
  /// concerns the whole device set and lands on every ring.
  void record(const TraceRecord& rec) override;

  /// Records a device has ever filed (monotonic; exceeds depth() once the
  /// ring wraps).
  [[nodiscard]] u64 recorded(u32 dev) const { return rings_[dev].total(); }
  /// Records currently held (min(recorded, depth)).
  [[nodiscard]] u32 size(u32 dev) const {
    return static_cast<u32>(rings_[dev].size());
  }

  /// The retained records of one device, oldest first.
  [[nodiscard]] std::vector<TraceRecord> snapshot(u32 dev) const {
    return rings_[dev].snapshot();
  }

  void clear();

  /// The unit a record is filed under: its link, else its vault, else 0.
  [[nodiscard]] static u32 unit_of(const TraceRecord& rec);

  /// Text render: a chronological per-device listing, oldest first, with
  /// a header line giving retained/total counts.
  void dump_text(std::ostream& os) const;

  /// Chrome-trace (Trace Event Format) render: instant events per device
  /// (pid = device) on per-unit tracks; FF_SKIP_SPAN renders as a duration
  /// covering the skipped window.  Written through trace/chrome.hpp's
  /// ChromeWriter, so the framing is the lifecycle export's and the two
  /// can be merged in Perfetto.
  void dump_chrome(std::ostream& os) const;

 private:
  u32 depth_;
  std::vector<TraceRing> rings_;
};

}  // namespace hmcsim
