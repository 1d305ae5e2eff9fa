// The one number spelling (common/number.hpp): decimal, or hex after
// 0x/0X, with no octal, sign or space — and every text input that reads
// numbers through it agrees.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "chaos/plan.hpp"
#include "common/number.hpp"
#include "core/config_file.hpp"
#include "workload/trace_file.hpp"

namespace hmcsim {
namespace {

TEST(NumberSpelling, ParseUnsignedTable) {
  const struct {
    const char* text;
    bool ok;
    u64 value;
    bool too_large;
  } cases[] = {
      {"0", true, 0, false},
      {"42", true, 42, false},
      {"010", true, 10, false},  // a leading zero is not octal
      {"0x10", true, 16, false},
      {"0X1f", true, 31, false},
      {"0xffffffffffffffff", true, ~u64{0}, false},
      {"18446744073709551615", true, ~u64{0}, false},
      {"18446744073709551616", false, 0, true},
      {"0x10000000000000000", false, 0, true},
      {"", false, 0, false},
      {"0x", false, 0, false},
      {"x10", false, 0, false},
      {"0b1", false, 0, false},
      {"+1", false, 0, false},
      {"-1", false, 0, false},
      {" 1", false, 0, false},
      {"1 ", false, 0, false},
      {"1e6", false, 0, false},
      {"0x1g", false, 0, false},
      {"0x0x1", false, 0, false},
  };
  for (const auto& c : cases) {
    u64 value = 0;
    bool too_large = false;
    EXPECT_EQ(parse_unsigned(c.text, value, &too_large), c.ok) << c.text;
    EXPECT_EQ(too_large, c.too_large) << c.text;
    if (c.ok) EXPECT_EQ(value, c.value) << c.text;
  }
}

TEST(NumberSpelling, EveryTextInputReadsTheSameRule) {
  const std::pair<const char*, u64> spellings[] = {
      {"2", 2}, {"010", 10}, {"0x2", 2}, {"0X10", 16}};
  for (const auto& [text, value] : spellings) {
    const ConfigParseResult cfg = parse_config_string(
        std::string("failed_vault_mask = ") + text + "\n");
    ASSERT_TRUE(cfg.ok) << text << ": " << cfg.error;
    EXPECT_EQ(cfg.config.device.failed_vault_mask, value) << text;

    const ChaosPlanParseResult plan =
        parse_chaos_plan_string(std::string("at ") + text + " vault_fail 1\n");
    ASSERT_TRUE(plan.ok) << text << ": " << plan.error;
    EXPECT_EQ(plan.plan.events.at(0).cycle, value) << text;

    RequestDesc desc;
    ASSERT_TRUE(parse_trace_request(std::string("R ") + text + " 64", desc,
                                    nullptr, nullptr))
        << text;
    EXPECT_EQ(desc.addr, value) << text;
  }
}

}  // namespace
}  // namespace hmcsim
