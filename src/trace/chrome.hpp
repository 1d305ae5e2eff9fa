// Chrome-trace (Trace Event Format) export.
//
// ChromeWriter frames every Chrome export — this lifecycle sink and the
// flight recorder's dump (profile/flight_recorder.hpp) — so both load in
// chrome://tracing and Perfetto alike and can be merged.
//
// ChromeTraceSink renders every completed packet as a chain of duration
// ("ph":"X") events across per-device link and vault tracks, connected by
// flow arrows:
//
//   pid  = cube id
//   tid  = link index (xbar + drain segments) or
//          kVaultTidBase + vault index (queue/conflict/response segments)
//   ts   = stamp cycle, dur = segment length (1 cycle == 1 "microsecond")
//
// The sink streams: each complete() appends the packet's events, and
// finish() closes the JSON document.
#pragma once

#include <iosfwd>
#include <string_view>
#include <vector>

#include "trace/lifecycle.hpp"

namespace hmcsim {

/// Trace Event Format framing: the opening
/// {"displayTimeUnit":"ns","traceEvents":[, one event per line with its
/// separator, track-name metadata, and the closing ]}.  Callers write each
/// event's JSON object; the writer writes everything around it.
class ChromeWriter {
 public:
  /// Writes the opening.  The stream must outlive the writer.
  explicit ChromeWriter(std::ostream& os);
  /// Closes the document if close() has not.
  ~ChromeWriter();
  ChromeWriter(const ChromeWriter&) = delete;
  ChromeWriter& operator=(const ChromeWriter&) = delete;

  /// Start the next event on its own line; the caller writes exactly one
  /// JSON object to the returned stream.
  std::ostream& event();
  /// Metadata naming the track group `pid` (a cube).
  void process_name(u32 pid, std::string_view name);
  /// Metadata naming track `tid` of group `pid`.
  void thread_name(u32 pid, u32 tid, std::string_view name);

  /// Close the document and flush the stream (idempotent).
  void close();
  [[nodiscard]] bool closed() const { return closed_; }

 private:
  std::ostream* os_;
  bool first_event_{true};
  bool closed_{false};
};

class ChromeTraceSink final : public LifecycleObserver {
 public:
  /// tids for vault tracks start here so they sort after link tracks.
  static constexpr u32 kVaultTidBase = 1000;

  /// The stream must outlive the sink.  The document is opened eagerly so
  /// an empty run still produces valid JSON.
  explicit ChromeTraceSink(std::ostream& os) : out_(os) {}

  void complete(const PacketLifecycle& lc) override;

  /// Close the JSON document (idempotent).  After this, further
  /// complete() calls are ignored.
  void finish() { out_.close(); }

  [[nodiscard]] u64 packets_emitted() const { return packets_; }

 private:
  void emit_event(const char* name, char phase, Cycle ts, Cycle dur, u32 pid,
                  u32 tid, const PacketLifecycle& lc, u64 flow_id,
                  bool flow_end);
  void ensure_track_metadata(u32 dev, u32 tid, const char* kind, u32 index);

  ChromeWriter out_;
  u64 packets_{0};
  /// Track-metadata dedup: (dev, tid) pairs already named.
  std::vector<u64> named_tracks_;
};

}  // namespace hmcsim
