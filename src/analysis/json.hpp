// Machine-readable run reports.
//
// Downstream tooling (plotting scripts, regression dashboards) wants the
// simulator's configuration, counters, link utilization and energy estimate
// in one structured document.  `JsonWriter` is a minimal, dependency-free
// streaming JSON emitter with correct string escaping and nesting checks;
// `write_stats_json` renders the full simulator report with it.
#pragma once

#include <iosfwd>
#include <string_view>
#include <vector>

#include "analysis/power.hpp"
#include "core/simulator.hpp"
#include "trace/lifecycle.hpp"

namespace hmcsim {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(&os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(u64 v);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  /// Without this overload, string literals would convert to bool.
  JsonWriter& value(const char* v) { return value(std::string_view{v}); }

  /// key+value conveniences.
  JsonWriter& kv(std::string_view name, u64 v) { return key(name).value(v); }
  JsonWriter& kv(std::string_view name, double v) {
    return key(name).value(v);
  }
  JsonWriter& kv(std::string_view name, bool v) { return key(name).value(v); }
  JsonWriter& kv(std::string_view name, std::string_view v) {
    return key(name).value(v);
  }
  JsonWriter& kv(std::string_view name, const char* v) {
    return key(name).value(std::string_view{v});
  }

  /// True when every container has been closed.
  [[nodiscard]] bool balanced() const { return depth_ == 0; }

 private:
  void separator();
  void escape(std::string_view text);

  std::ostream* os_;
  int depth_{0};
  bool need_comma_{false};
};

/// Optional observability attachments for the JSON report.  Null members
/// simply omit their section.
struct ReportExtras {
  const LifecycleSink* lifecycle{nullptr};  ///< "latency_breakdown" section
};

/// Full simulator report: configuration, per-device statistics, per-link
/// utilization, and the activity-based energy estimate — plus the
/// per-segment latency breakdown when attached, and the telemetry rows
/// ("samples") and histograms ("telemetry") when telemetry is on.
void write_stats_json(std::ostream& os, const Simulator& sim,
                      const PowerConfig& power = {},
                      const ReportExtras& extras = {});

}  // namespace hmcsim
