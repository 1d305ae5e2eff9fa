// The tracer: one event gate plus fan-out to registered sinks.
//
// Every attached sink wants a set of event kinds.  A level-following sink
// (text, memory, counting, per-vault series) wants the kinds of the current
// TraceLevel; a sink attached with a fixed set (the flight recorder's ring)
// wants that set whatever the level.  The tracer keeps the union as one
// precomputed mask, so the gate at a trace site is a single inline bit test
// and nothing is built for a kind no sink wants.
#pragma once

#include <memory>
#include <vector>

#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace hmcsim {

class Tracer {
 public:
  Tracer() = default;

  void set_level(TraceLevel level);
  [[nodiscard]] TraceLevel level() const { return level_; }

  /// Attach a level-following sink; the tracer shares ownership so callers
  /// can keep a handle for post-run inspection.
  void add_sink(std::shared_ptr<TraceSink> sink);
  /// Attach a sink that receives exactly `kinds`, whatever the level.
  void add_sink(std::shared_ptr<TraceSink> sink, TraceMask kinds);
  /// Detach a sink (no-op when it is not attached).
  void remove_sink(const TraceSink* sink);

  /// The gate: does any attached sink want this kind?
  [[nodiscard]] bool enabled(TraceEvent e) const {
    return (mask_ & trace_bit(e)) != 0;
  }

  /// Hand a record to every sink that wants its kind (callers gate on
  /// enabled()).
  void emit(const TraceRecord& rec);

  /// Gate + record in one call for cold paths.
  void emit_if_enabled(const TraceRecord& rec) {
    if (enabled(rec.event)) emit(rec);
  }

  void flush();

 private:
  struct Attached {
    std::shared_ptr<TraceSink> sink;
    bool follows_level;
    TraceMask kinds;  ///< what the sink receives now
  };

  /// Recompute each level-following sink's kinds and the union mask.
  void update_mask();

  TraceLevel level_{TraceLevel::Off};
  TraceMask mask_{0};
  std::vector<Attached> sinks_;
};

}  // namespace hmcsim
