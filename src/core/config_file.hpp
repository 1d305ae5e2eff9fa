// Key/value configuration files.
//
// Experiment runners and downstream integrations want device
// configurations in files rather than code.  The format is minimal INI:
//
//   # Table I configuration C
//   num_devices   = 1
//   num_links     = 8
//   banks_per_vault = 8
//   xbar_depth    = 128
//   vault_depth   = 64
//   capacity_gb   = 4
//   map_mode      = low_interleave      # bank_first | linear
//   vault_schedule = bank_ready         # strict_fifo
//   link_error_rate_ppm = 0
//
// The keys are those of kConfigFields (core/config.hpp), in its order,
// plus four written out here: num_devices, capacity_gb, the repeatable
// vault_backend and the ignored sim_threads.  Unknown keys are errors (they
// are invariably typos); every key is optional and defaults to the in-code
// DeviceConfig defaults.  The parser reports the first problem with its
// line number.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/config.hpp"

namespace hmcsim {

struct ConfigParseResult {
  bool ok{false};
  SimConfig config{};
  /// Diagnostic for the first error: "<line>: <message>".
  std::string error{};
};

/// Parse a configuration stream.  On success the returned config has also
/// passed SimConfig::validate().
[[nodiscard]] ConfigParseResult parse_config(std::istream& in);

/// Parse from a string (convenience for tests and embedded configs).
[[nodiscard]] ConfigParseResult parse_config_string(const std::string& text);

/// Serialize a config in the same format (inverse of the parser).
void write_config(std::ostream& os, const SimConfig& config);

/// Parse `text` as a value of `field`: one of its names for an Enum,
/// true/false or 1/0 for a Flag, else a number no larger than the field's
/// bound, spelled as parse_unsigned reads it (common/number.hpp: decimal,
/// or hex after 0x).  Config files and hmcsim_run's flags share this rule.
/// Returns the word, or nullopt with `error` set to "<key> <reason>".
[[nodiscard]] std::optional<u64> parse_config_value(const ConfigField& field,
                                                    std::string_view text,
                                                    std::string* error);

}  // namespace hmcsim
