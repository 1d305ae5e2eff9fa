#include "core/config_file.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/number.hpp"
#include "io/bounded_line.hpp"

namespace hmcsim {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

ConfigParseResult fail(usize line, const std::string& message) {
  ConfigParseResult r;
  r.error = std::to_string(line) + ": " + message;
  return r;
}

}  // namespace

ConfigParseResult parse_config(std::istream& in) {
  SimConfig config;
  std::string raw;
  usize line_no = 0;

  for (;;) {
    const io::LineRead lr = io::getline_bounded(in, raw);
    if (lr == io::LineRead::Eof) break;
    ++line_no;
    if (lr == io::LineRead::TooLong) {
      return fail(line_no, "line exceeds " +
                               std::to_string(io::kMaxLineBytes) + " bytes");
    }
    // Strip comments and whitespace.
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(line_no, "expected key = value");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return fail(line_no, "empty key or value");
    }

    DeviceConfig& dc = config.device;
    if (const ConfigField* field = find_config_field(key);
        field != nullptr && field->keyed()) {
      std::string error;
      const std::optional<u64> word =
          parse_config_value(*field, value, &error);
      if (!word) return fail(line_no, error);
      field->set(dc, *word);
      continue;
    }

    u64 number = 0;
    const bool is_number = parse_unsigned(value, number);
    if (key == "num_devices") {
      if (!is_number) return fail(line_no, "num_devices needs a number");
      if (number > std::numeric_limits<u32>::max()) {
        return fail(line_no, "num_devices does not fit in 32 bits: " + value);
      }
      config.num_devices = static_cast<u32>(number);
    } else if (key == "capacity_gb") {
      if (!is_number) return fail(line_no, "capacity_gb needs a number");
      if (number > (std::numeric_limits<u64>::max() >> 30)) {
        return fail(line_no, "capacity_gb is too large: " + value);
      }
      dc.capacity_bytes = number << 30;
    } else if (key == "sim_threads") {
      // Accepted and ignored: the clock engine is serial, but files saved by
      // earlier versions carry this line.  Delete with the next benchmark
      // change.
      if (!is_number) return fail(line_no, "sim_threads needs a number");
    } else if (key == "vault_backend") {
      // Repeatable per-vault override: "<index>:<name>" or
      // "<lo>-<hi>:<name>".
      const auto colon = value.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= value.size()) {
        return fail(line_no,
                    "vault_backend needs <vault|lo-hi>:<backend name>");
      }
      const std::string range = trim(value.substr(0, colon));
      const std::string name = trim(value.substr(colon + 1));
      TimingBackend backend;
      if (!timing_backend_from_string(name, &backend)) {
        return fail(line_no, "unknown vault_backend '" + name +
                                 "' (hmc_dram/generic_ddr/pcm_like)");
      }
      const auto dash = range.find('-');
      u64 lo = 0;
      u64 hi = 0;
      const std::string last =
          dash == std::string::npos ? range : trim(range.substr(dash + 1));
      if (!parse_unsigned(trim(range.substr(0, dash)), lo) ||
          !parse_unsigned(last, hi) || hi < lo) {
        return fail(line_no, "vault_backend needs a vault index or a "
                             "<lo>-<hi> range");
      }
      if (hi >= 64) {
        return fail(line_no, "vault_backend index " + std::to_string(hi) +
                                 " is beyond any device geometry");
      }
      for (u64 v = lo; v <= hi; ++v) {
        for (const auto& existing : dc.vault_backends) {
          if (existing.first == v) {
            return fail(line_no, "vault_backend index " + std::to_string(v) +
                                     " is listed twice");
          }
        }
        dc.vault_backends.emplace_back(static_cast<u32>(v), backend);
      }
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
  }

  std::string diag;
  if (!ok(config.validate(&diag))) {
    return fail(line_no, "invalid configuration: " + diag);
  }
  ConfigParseResult r;
  r.ok = true;
  r.config = config;
  return r;
}

ConfigParseResult parse_config_string(const std::string& text) {
  std::istringstream in(text);
  return parse_config(in);
}

void write_config(std::ostream& os, const SimConfig& config) {
  const DeviceConfig& dc = config.device;
  os << "# hmcsim device configuration\n";
  os << "num_devices = " << config.num_devices << '\n';
  os << "capacity_gb = " << (dc.derived_capacity() >> 30) << '\n';
  for (const ConfigField& f : kConfigFields) {
    if (!f.keyed()) continue;
    const u64 word = f.get(dc);
    os << f.key << " = ";
    switch (f.kind) {
      case FieldKind::Number: os << word; break;
      case FieldKind::Flag: os << (word != 0 ? "true" : "false"); break;
      case FieldKind::Enum: os << f.name(word); break;
    }
    os << '\n';
  }
  for (const auto& [vault, backend] : dc.vault_backends) {
    os << "vault_backend = " << vault << ':' << to_string(backend) << '\n';
  }
}

std::optional<u64> parse_config_value(const ConfigField& field,
                                      std::string_view text,
                                      std::string* error) {
  const auto refuse = [&](const std::string& reason) -> std::optional<u64> {
    if (error != nullptr) *error = std::string(field.key) + " " + reason;
    return std::nullopt;
  };
  const std::string quoted = "'" + std::string(text) + "'";
  switch (field.kind) {
    case FieldKind::Flag:
      if (text == "true" || text == "1") return 1;
      if (text == "false" || text == "0") return 0;
      return refuse("must be true/false, got " + quoted);
    case FieldKind::Enum: {
      std::string choices;
      for (usize i = 0; i < field.names.size(); ++i) {
        if (field.names[i] == text) return i;
        choices += (i == 0 ? "" : "/") + std::string(field.names[i]);
      }
      return refuse("must be " + choices + ", got " + quoted);
    }
    case FieldKind::Number:
      break;
  }
  u64 word = 0;
  bool too_large = false;
  if (!parse_unsigned(text, word, &too_large) && !too_large) {
    return refuse("needs a number, got " + quoted);
  }
  if (too_large || word > field.max) {
    return refuse(std::string("does not fit in ") +
                  (field.max > std::numeric_limits<u32>::max() ? "64" : "32") +
                  " bits: " + std::string(text));
  }
  return word;
}

}  // namespace hmcsim
