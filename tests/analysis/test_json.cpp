#include "analysis/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "tests/core/helpers.hpp"
#include "trace/lifecycle.hpp"

namespace hmcsim {
namespace {

/// Tiny structural validator: brace/bracket balance, quote pairing, and no
/// trailing commas.  Not a full parser, but catches every class of bug a
/// hand-rolled emitter can produce.
bool looks_like_valid_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = 0;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[':
        ++depth;
        prev_significant = c;
        break;
      case '}': case ']':
        if (depth == 0) return false;
        if (prev_significant == ',') return false;  // trailing comma
        --depth;
        prev_significant = c;
        break;
      case ',':
        if (prev_significant == ',' || prev_significant == '{' ||
            prev_significant == '[') {
          return false;
        }
        prev_significant = c;
        break;
      default:
        if (!std::isspace(static_cast<unsigned char>(c))) {
          prev_significant = c;
        }
    }
  }
  return depth == 0 && !in_string;
}

TEST(JsonWriter, PrimitivesAndNesting) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.kv("int", u64{42});
  json.kv("float", 3.5);
  json.kv("flag", true);
  json.kv("text", "hello");
  json.key("list").begin_array();
  json.value(u64{1});
  json.value(u64{2});
  json.end_array();
  json.key("nested").begin_object();
  json.kv("inner", u64{7});
  json.end_object();
  json.end_object();
  EXPECT_TRUE(json.balanced());
  const std::string text = os.str();
  EXPECT_EQ(text,
            R"({"int":42,"float":3.5,"flag":true,"text":"hello",)"
            R"("list":[1,2],"nested":{"inner":7}})");
  EXPECT_TRUE(looks_like_valid_json(text));
}

TEST(JsonWriter, EscapesStrings) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.kv("quote", "a\"b");
  json.kv("backslash", "c\\d");
  json.kv("newline", "e\nf");
  json.end_object();
  EXPECT_EQ(os.str(),
            R"({"quote":"a\"b","backslash":"c\\d","newline":"e\nf"})");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.kv("nan", std::nan(""));
  json.kv("inf", std::numeric_limits<double>::infinity());
  json.end_object();
  EXPECT_EQ(os.str(), R"({"nan":null,"inf":null})");
}

TEST(StatsJson, FullReportIsStructurallyValid) {
  Simulator sim = test::make_simple_sim();
  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Wr16, 0x40, 1, 0, {1, 2}),
            Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());

  std::ostringstream os;
  write_stats_json(os, sim);
  const std::string text = os.str();
  EXPECT_TRUE(looks_like_valid_json(text)) << text;
  for (const char* expected :
       {"\"simulator\":\"hmcsim++\"", "\"config\":", "\"totals\":",
        "\"devices\":[", "\"links\":[", "\"power\":", "\"writes\":1",
        "\"num_vaults\":16", "\"map_mode\":\"low_interleave\""}) {
    EXPECT_NE(text.find(expected), std::string::npos) << expected;
  }
}

TEST(StatsJson, UninitializedSimulatorProducesMinimalDocument) {
  Simulator sim;
  std::ostringstream os;
  write_stats_json(os, sim);
  EXPECT_TRUE(looks_like_valid_json(os.str()));
  EXPECT_NE(os.str().find("\"cycle\":0"), std::string::npos);
  EXPECT_EQ(os.str().find("\"config\""), std::string::npos);
}

TEST(StatsJson, ConfigEchoesEveryResultChangingKnob) {
  // Each knob set off its default, so a missing key cannot pass by
  // matching the default value.
  DeviceConfig dc = test::small_device();
  dc.drams_per_bank = 16;
  dc.vault_drain_limit = 3;
  dc.nonlocal_penalty_cycles = 5;
  dc.conflict_window = 7;
  dc.refresh_interval_cycles = 9750;
  dc.refresh_busy_cycles = 333;
  dc.row_policy = RowPolicy::OpenPage;
  dc.row_hit_cycles = 4;
  dc.row_miss_cycles = 29;
  dc.fault_seed = 4242;
  dc.link_protocol = true;
  dc.link_retry_limit = 11;
  dc.checkpoint_interval_cycles = 1234;
  Simulator sim = test::make_simple_sim(dc);

  std::ostringstream os;
  write_stats_json(os, sim);
  const std::string text = os.str();
  for (const char* expected :
       {"\"drams_per_bank\":16", "\"vault_drain_limit\":3",
        "\"nonlocal_penalty_cycles\":5", "\"conflict_window\":7",
        "\"refresh_interval_cycles\":9750", "\"refresh_busy_cycles\":333",
        "\"row_policy\":\"open_page\"", "\"row_hit_cycles\":4",
        "\"row_miss_cycles\":29", "\"fault_seed\":4242",
        "\"link_retry_limit\":11", "\"checkpoint_interval_cycles\":1234"}) {
    EXPECT_NE(text.find(expected), std::string::npos) << expected;
  }
}

TEST(StatsJsonExtras, LifecycleAndSamplesSectionsAppear) {
  DeviceConfig dc = test::small_device();
  dc.telemetry_interval_cycles = 8;
  Simulator sim = test::make_simple_sim(dc);
  auto lifecycle = std::make_shared<LifecycleSink>();
  sim.add_lifecycle_observer(lifecycle);

  ASSERT_EQ(test::send_request(sim, 0, 0, Command::Rd64, 0x40, 1),
            Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());
  ASSERT_EQ(lifecycle->completed(), 1u);
  // The response may drain before the first sampling interval elapses;
  // idle-clock past it so the samples section has content.
  for (int i = 0; i < 10; ++i) sim.clock();
  ASSERT_FALSE(sim.telemetry()->rows().empty());

  std::ostringstream os;
  ReportExtras extras;
  extras.lifecycle = lifecycle.get();
  write_stats_json(os, sim, {}, extras);
  const std::string text = os.str();
  for (const char* expected :
       {"\"latency_breakdown\":", "\"completed\":1", "\"classes\":",
        "\"read\":", "\"total\":", "\"merged\":", "\"samples\":",
        "\"interval\":8", "\"link_rqst\":"}) {
    EXPECT_NE(text.find(expected), std::string::npos) << expected;
  }
  // Without the lifecycle extra its section stays out; the samples ride
  // telemetry, so they stay in.
  std::ostringstream plain;
  write_stats_json(plain, sim);
  EXPECT_EQ(plain.str().find("\"latency_breakdown\""), std::string::npos);
  EXPECT_NE(plain.str().find("\"samples\""), std::string::npos);
  // With telemetry off there are no rows to write.
  Simulator off = test::make_simple_sim();
  for (int i = 0; i < 10; ++i) off.clock();
  std::ostringstream none;
  write_stats_json(none, off, {}, extras);
  EXPECT_EQ(none.str().find("\"samples\""), std::string::npos);
}

TEST(StatsJson, MultiDeviceArraysSized) {
  SimConfig sc;
  sc.num_devices = 3;
  sc.device = test::small_device();
  std::string err;
  Topology topo = make_chain(3, 4, 2, 1, &err);
  ASSERT_GT(topo.num_devices(), 0u) << err;
  Simulator sim;
  ASSERT_EQ(sim.init(sc, std::move(topo)), Status::Ok);
  for (int i = 0; i < 5; ++i) sim.clock();

  std::ostringstream os;
  write_stats_json(os, sim);
  const std::string text = os.str();
  EXPECT_TRUE(looks_like_valid_json(text));
  // 3 devices x 4 links = 12 link records.
  usize count = 0;
  for (usize pos = text.find("\"rqst_util\""); pos != std::string::npos;
       pos = text.find("\"rqst_util\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 12u);
}

}  // namespace
}  // namespace hmcsim
