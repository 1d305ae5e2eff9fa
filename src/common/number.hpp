// The one number spelling every hmcsim text input reads: decimal, or hex
// after a 0x/0X prefix.  Config files, hmcsim_run's flags, chaos plans,
// request-trace addresses and the HMCSIM_* environment variables all parse
// through parse_unsigned, so "010" is ten everywhere and "0x10" sixteen.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

#include "common/types.hpp"

namespace hmcsim {

/// Parse all of `text` as an unsigned number: decimal, or hex after a
/// 0x/0X prefix.  No sign, space or other prefix is accepted.  `too_large`
/// tells a number past 64 bits from junk.
[[nodiscard]] inline bool parse_unsigned(std::string_view text, u64& out,
                                         bool* too_large = nullptr) {
  int base = 10;
  if (text.size() > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
  if (too_large != nullptr) {
    *too_large = ec == std::errc::result_out_of_range && ptr == end;
  }
  return !text.empty() && ptr == end && ec == std::errc{};
}

}  // namespace hmcsim
