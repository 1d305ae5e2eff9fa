// Trace reader: parses the canonical text trace format back into
// TraceRecords, so "entire application memory traces can be revisited and
// analyzed for accuracy, latency characteristics, bandwidth utilization and
// overall transaction efficiency" (paper §IV.E) — including traces written
// by earlier runs or other tools emitting the same format.
//
// The format (see TextSink::format) is one record per line:
//   HMCSIM_TRACE : <cycle> : s<stage> : <EVENT> : d:l:q:v:b : 0x<addr>
//     : <tag> : <CMD>
// with `-` for not-applicable locality coordinates.
#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>

#include "trace/sink.hpp"

namespace hmcsim {

/// Parse one trace line.  Returns nullopt for malformed lines (including
/// non-trace lines, which interleaved logs commonly contain).
[[nodiscard]] std::optional<TraceRecord> parse_trace_line(
    std::string_view line);

/// Reverse lookups for the symbolic fields.
[[nodiscard]] std::optional<TraceEvent> trace_event_from_string(
    std::string_view name);
[[nodiscard]] std::optional<Command> command_from_string(
    std::string_view name);

/// Stream every parseable record from `in` into `sink`.  Returns the number
/// of records replayed; `malformed_lines` (when non-null) receives the
/// count of lines that did not parse.  A line longer than
/// io::kMaxLineBytes is skipped unbuffered and counted as malformed.
usize replay_trace(std::istream& in, TraceSink& sink,
                   usize* malformed_lines = nullptr);

}  // namespace hmcsim
