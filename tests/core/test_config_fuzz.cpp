// Robustness fuzzing for the configuration-file parser, mirroring
// tests/packet/test_fuzz.cpp: arbitrary text soup, truncations, and
// single-character mutations of valid files must never crash
// parse_config_string — only a clean accept (with a validated config) or a
// clean reject (with a line-numbered diagnostic).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "core/config_file.hpp"

namespace hmcsim {
namespace {

/// Characters a config file can plausibly contain, plus hostile extras.
const std::string kAlphabet =
    "abcdefghijklmnopqrstuvwxyz_0123456789 =#.\t-+xGgMmKk\n\"\\";

std::string random_text(SplitMix64& rng, usize max_len) {
  std::string text;
  const usize len = rng.next_below(max_len);
  for (usize i = 0; i < len; ++i) {
    text += kAlphabet[rng.next_below(kAlphabet.size())];
  }
  return text;
}

void expect_clean_outcome(const std::string& text) {
  const ConfigParseResult r = parse_config_string(text);
  if (r.ok) {
    // An accepted config must have passed full validation: re-serializing
    // and re-parsing it must succeed and converge.
    std::ostringstream os;
    write_config(os, r.config);
    const ConfigParseResult round = parse_config_string(os.str());
    EXPECT_TRUE(round.ok) << "accepted config failed to round-trip: "
                          << round.error;
  } else {
    EXPECT_FALSE(r.error.empty()) << "rejection without a diagnostic";
  }
}

TEST(ConfigFuzz, RandomTextNeverCrashesTheParser) {
  SplitMix64 rng(0xC0FF);
  for (int i = 0; i < 20000; ++i) {
    expect_clean_outcome(random_text(rng, 200));
  }
}

TEST(ConfigFuzz, RandomKeyValueShapedLinesNeverCrash) {
  // Bias the soup toward things that look like real assignments so the
  // value-parsing and range-checking paths get hit, not just key lookup.
  SplitMix64 rng(0xFACE);
  // Every key the file accepts, plus one it must refuse.
  std::vector<std::string_view> keys = {"num_devices", "capacity_gb",
                                        "vault_backend", "sim_threads",
                                        "not_a_real_key"};
  std::vector<std::string_view> names;
  for (const ConfigField& f : kConfigFields) {
    if (f.keyed()) keys.push_back(f.key);
    names.insert(names.end(), f.names.begin(), f.names.end());
  }
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const usize lines = 1 + rng.next_below(6);
    for (usize l = 0; l < lines; ++l) {
      text += keys[rng.next_below(keys.size())];
      text += " = ";
      // Values: plain numbers, huge numbers, negatives, junk words, flag
      // and enum spellings, plus vault_backend's "<index>:<name>" /
      // "<lo>-<hi>:<name>" shapes (well formed, out of range, and
      // malformed).
      switch (rng.next_below(11)) {
        case 0: text += std::to_string(rng.next_below(1u << 20)); break;
        case 1: text += "99999999999999999999999"; break;
        case 2: text += "-5"; break;
        case 3: text += random_text(rng, 12); break;
        case 4: text += "pcm_like"; break;
        case 5:
          text += std::to_string(rng.next_below(80)) + ":generic_ddr";
          break;
        case 6: text += "0-63:pcm_like"; break;
        case 7: text += ":" + random_text(rng, 8); break;
        case 8: text += rng.next_below(2) == 0 ? "true" : "false"; break;
        case 9: text += names[rng.next_below(names.size())]; break;
        default: text += "bank_ready"; break;
      }
      text += '\n';
    }
    expect_clean_outcome(text);
  }
}

TEST(ConfigFuzz, MutatedValidFilesNeverMisparse) {
  // Serialize a real config, then mutate one character at a time with the
  // same alphabet the packet fuzzer uses: every parse must end cleanly,
  // and accepts must still satisfy validation invariants.
  SimConfig sc;
  sc.device.num_links = 8;
  sc.device.dram_sbe_rate_ppm = 100;
  // Non-default backend state so the timing_backend / vault_backend /
  // ddr_* / pcm_* lines exist in the serialized base and get mutated too.
  sc.device.timing_backend = TimingBackend::GenericDdr;
  sc.device.vault_backends = {{2, TimingBackend::PcmLike}};
  sc.device.pcm_write_gap_cycles = 12;
  std::ostringstream os;
  write_config(os, sc);
  const std::string base = std::move(os).str();
  ASSERT_TRUE(parse_config_string(base).ok);

  for (usize pos = 0; pos < base.size(); ++pos) {
    for (const char c : {'0', 'x', '=', ' ', 'Z', '-'}) {
      std::string mutated = base;
      mutated[pos] = c;
      expect_clean_outcome(mutated);
    }
  }
}

TEST(ConfigFuzz, TruncationsOfValidFilesNeverCrash) {
  SimConfig sc;
  sc.device.num_links = 4;
  std::ostringstream os;
  write_config(os, sc);
  const std::string base = std::move(os).str();
  for (usize len = 0; len <= base.size(); ++len) {
    expect_clean_outcome(base.substr(0, len));
  }
}

}  // namespace
}  // namespace hmcsim
