// Trace sinks: destinations for trace records.
//
// The paper lets users designate "the target output file buffers"; we
// generalize to a sink interface so benches can aggregate in memory
// (the paper's full-verbosity text traces ran to 40 GB) while tests and
// examples can still write the classic text format.
#pragma once

#include <array>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/ring.hpp"

namespace hmcsim {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceRecord& rec) = 0;
  virtual void flush() {}
};

/// Formats one record per line into a std::ostream, in the spirit of the
/// original HMC-Sim text traces:
///   `HMCSIM_TRACE : <cycle> : <stage> : <EVENT> : dev:link:quad:vault:bank
///    : addr : tag : cmd`
class TextSink final : public TraceSink {
 public:
  /// The stream must outlive the sink.
  explicit TextSink(std::ostream& os) : os_(&os) {}

  void record(const TraceRecord& rec) override;
  void flush() override;

  /// Render a record to the canonical text form (used by tests).
  static std::string format(const TraceRecord& rec);

 private:
  std::ostream* os_;
};

/// Buffers records in memory, optionally bounded (once `max_records` are
/// held, each new record drops the oldest, keeping the most recent window).
class MemorySink final : public TraceSink {
 public:
  explicit MemorySink(usize max_records = 0) : ring_(max_records) {}

  void record(const TraceRecord& rec) override { ring_.push(rec); }

  /// The held records, oldest first.
  [[nodiscard]] std::vector<TraceRecord> records() const {
    return ring_.snapshot();
  }
  [[nodiscard]] u64 total_recorded() const { return ring_.total(); }
  void clear() { ring_.clear(); }

 private:
  TraceRing ring_;
};

/// Counts records per event kind; O(1) memory regardless of run length.
class CountingSink final : public TraceSink {
 public:
  void record(const TraceRecord& rec) override {
    ++counts_[static_cast<usize>(rec.event)];
  }

  [[nodiscard]] u64 count(TraceEvent e) const {
    return counts_[static_cast<usize>(e)];
  }
  [[nodiscard]] u64 total() const {
    u64 sum = 0;
    for (const u64 c : counts_) sum += c;
    return sum;
  }
  void clear() { counts_.fill(0); }

 private:
  std::array<u64, kTraceEventCount> counts_{};
};

}  // namespace hmcsim
