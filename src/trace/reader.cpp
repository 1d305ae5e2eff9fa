#include "trace/reader.hpp"

#include <charconv>

#include <istream>
#include <string>
#include <vector>

#include "common/limits.hpp"
#include "io/bounded_line.hpp"

namespace hmcsim {
namespace {

/// Split on " : " separators, trimming nothing (the writer emits exactly
/// one space around each colon separator at the field level).
std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  usize pos = 0;
  while (pos <= line.size()) {
    const usize next = line.find(" : ", pos);
    if (next == std::string_view::npos) {
      fields.push_back(line.substr(pos));
      break;
    }
    fields.push_back(line.substr(pos, next - pos));
    pos = next + 3;
  }
  return fields;
}

std::optional<u64> parse_u64(std::string_view text, int base = 10) {
  u64 value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// Parse one locality coordinate: a decimal number or `-` for kNoCoord.
std::optional<u32> parse_coord(std::string_view text) {
  if (text == "-") return kNoCoord;
  const auto v = parse_u64(text);
  if (!v || *v > 0xffffffffull) return std::nullopt;
  return static_cast<u32>(*v);
}

}  // namespace

std::optional<TraceEvent> trace_event_from_string(std::string_view name) {
  for (usize i = 0; i < kTraceEventCount; ++i) {
    const auto event = static_cast<TraceEvent>(i);
    if (to_string(event) == name) return event;
  }
  return std::nullopt;
}

std::optional<Command> command_from_string(std::string_view name) {
  for (u8 raw = 0; raw < 64; ++raw) {
    if (!is_valid_command(raw)) continue;
    const auto cmd = static_cast<Command>(raw);
    if (to_string(cmd) == name) return cmd;
  }
  return std::nullopt;
}

std::optional<TraceRecord> parse_trace_line(std::string_view line) {
  const auto fields = split_fields(line);
  // HMCSIM_TRACE, cycle, stage, event, locality, addr, tag, cmd
  if (fields.size() != 8 || fields[0] != "HMCSIM_TRACE") return std::nullopt;

  TraceRecord rec;

  const auto cycle = parse_u64(fields[1]);
  if (!cycle) return std::nullopt;
  rec.cycle = *cycle;

  if (fields[2].size() < 2 || fields[2][0] != 's') return std::nullopt;
  const auto stage = parse_u64(fields[2].substr(1));
  if (!stage || *stage > 6) return std::nullopt;
  rec.stage = static_cast<u8>(*stage);

  const auto event = trace_event_from_string(fields[3]);
  if (!event) return std::nullopt;
  rec.event = *event;

  // Locality: dev:link:quad:vault:bank with ':' separators (no spaces).
  {
    std::vector<std::string_view> coords;
    std::string_view loc = fields[4];
    usize pos = 0;
    while (pos <= loc.size()) {
      const usize next = loc.find(':', pos);
      if (next == std::string_view::npos) {
        coords.push_back(loc.substr(pos));
        break;
      }
      coords.push_back(loc.substr(pos, next - pos));
      pos = next + 1;
    }
    if (coords.size() != 5) return std::nullopt;
    const auto dev = parse_coord(coords[0]);
    const auto link = parse_coord(coords[1]);
    const auto quad = parse_coord(coords[2]);
    const auto vault = parse_coord(coords[3]);
    const auto bank = parse_coord(coords[4]);
    if (!dev || !link || !quad || !vault || !bank) return std::nullopt;
    rec.dev = *dev;
    rec.link = *link;
    rec.quad = *quad;
    rec.vault = *vault;
    rec.bank = *bank;
  }

  if (fields[5].size() < 3 || fields[5].substr(0, 2) != "0x") {
    return std::nullopt;
  }
  const auto addr = parse_u64(fields[5].substr(2), 16);
  if (!addr || *addr > spec::kAddrMask) return std::nullopt;
  rec.addr = *addr;

  const auto tag = parse_u64(fields[6]);
  if (!tag || *tag > 0xffff) return std::nullopt;
  rec.tag = static_cast<Tag>(*tag);

  const auto cmd = command_from_string(fields[7]);
  if (!cmd) return std::nullopt;
  rec.cmd = *cmd;

  return rec;
}

usize replay_trace(std::istream& in, TraceSink& sink,
                   usize* malformed_lines) {
  usize replayed = 0;
  usize malformed = 0;
  std::string line;
  for (;;) {
    const io::LineRead lr = io::getline_bounded(in, line);
    if (lr == io::LineRead::Eof) break;
    if (lr == io::LineRead::TooLong) {
      ++malformed;
      continue;
    }
    if (line.empty()) continue;
    if (const auto rec = parse_trace_line(line)) {
      sink.record(*rec);
      ++replayed;
    } else {
      ++malformed;
    }
  }
  if (malformed_lines != nullptr) *malformed_lines = malformed;
  return replayed;
}

}  // namespace hmcsim
