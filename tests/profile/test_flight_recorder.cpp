// Flight-recorder unit tests: every kind the ring records has a name,
// rings wrap keeping the newest records, and the text / Chrome renders are
// stable (the Chrome render is locked by a golden file).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "profile/flight_recorder.hpp"
#include "tests/golden.hpp"

namespace hmcsim {
namespace {

/// A ring record filed under `unit` (carried as its link).
TraceRecord make_event(Cycle cycle, TraceEvent event, u64 arg = 0,
                       u32 dev = 0, u32 unit = 0, u8 stage = 0) {
  TraceRecord rec;
  rec.event = event;
  rec.stage = stage;
  rec.cycle = cycle;
  rec.dev = dev;
  rec.link = unit;
  rec.arg = arg;
  return rec;
}

TEST(FlightEvent, EveryTypeHasAName) {
  for (usize e = 0; e < kTraceEventCount; ++e) {
    const auto event = static_cast<TraceEvent>(e);
    if ((FlightRecorder::kKinds & trace_bit(event)) == 0) continue;
    EXPECT_FALSE(to_string(event).empty());
    EXPECT_NE(to_string(event), "UNKNOWN");
  }
  EXPECT_EQ(to_string(TraceEvent::WatchdogFire), "WATCHDOG_FIRE");
  EXPECT_EQ(to_string(TraceEvent::FfSkipSpan), "FF_SKIP_SPAN");
}

TEST(FlightRecorder, RingWrapsKeepingNewestEvents) {
  FlightRecorder rec(1, 4);
  for (u64 i = 0; i < 10; ++i) {
    rec.record(make_event(100 + i, TraceEvent::XbarRqstStall, i));
  }
  EXPECT_EQ(rec.recorded(0), 10u);
  EXPECT_EQ(rec.size(0), 4u);
  const std::vector<TraceRecord> kept = rec.snapshot(0);
  ASSERT_EQ(kept.size(), 4u);
  // Oldest retained first: events 6, 7, 8, 9.
  for (usize i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].cycle, 106 + i);
    EXPECT_EQ(kept[i].arg, 6 + i);
  }
}

TEST(FlightRecorder, PartialRingSnapshotsInRecordOrder) {
  FlightRecorder rec(2, 8);
  rec.record(make_event(5, TraceEvent::RasSbe, 1, 1));
  rec.record(make_event(6, TraceEvent::RasDbe, 2, 1));
  EXPECT_EQ(rec.size(0), 0u);
  EXPECT_EQ(rec.size(1), 2u);
  const std::vector<TraceRecord> kept = rec.snapshot(1);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].event, TraceEvent::RasSbe);
  EXPECT_EQ(kept[1].event, TraceEvent::RasDbe);
}

TEST(FlightRecorder, DepthClampsToAtLeastOne) {
  FlightRecorder rec(1, 0);
  EXPECT_EQ(rec.depth(), 1u);
  rec.record(make_event(1, TraceEvent::LinkIrtry));
  rec.record(make_event(2, TraceEvent::LinkFailed));
  EXPECT_EQ(rec.size(0), 1u);
  EXPECT_EQ(rec.snapshot(0).front().cycle, 2u);
}

TEST(FlightRecorder, ClearDropsEverything) {
  FlightRecorder rec(2, 4);
  rec.record(make_event(1, TraceEvent::LinkIrtry));
  rec.record(make_event(2, TraceEvent::LinkIrtry, 0, 1));
  rec.clear();
  EXPECT_EQ(rec.recorded(0), 0u);
  EXPECT_EQ(rec.recorded(1), 0u);
  EXPECT_EQ(rec.size(0), 0u);
  EXPECT_TRUE(rec.snapshot(1).empty());
}

TEST(FlightRecorder, TextDumpListsHeaderAndEvents) {
  FlightRecorder rec(1, 4);
  rec.record(make_event(17, TraceEvent::LinkIrtry, 3, 0, 2, 1));
  rec.record(make_event(19, TraceEvent::WatchdogFire, 500));
  std::ostringstream os;
  rec.dump_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("flight recorder dev 0: 2 retained of 2 recorded"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cycle 17  LINK_IRTRY  stage=1  unit=2  arg=3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cycle 19  WATCHDOG_FIRE  unit=0  arg=500"),
            std::string::npos)
      << text;
}

TEST(FlightRecorder, FilesUnderLinkElseVaultElseZero) {
  TraceRecord rec;
  rec.link = 3;
  rec.vault = 9;
  EXPECT_EQ(FlightRecorder::unit_of(rec), 3u);
  rec.link = kNoCoord;
  EXPECT_EQ(FlightRecorder::unit_of(rec), 9u);
  rec.vault = kNoCoord;
  EXPECT_EQ(FlightRecorder::unit_of(rec), 0u);
}

TEST(FlightRecorder, WholeSetRecordLandsOnEveryRing) {
  FlightRecorder rec(3, 4);
  rec.record(make_event(7, TraceEvent::WatchdogArm, 50, kNoCoord));
  rec.record(make_event(8, TraceEvent::RasSbe, 1, 2));
  EXPECT_EQ(rec.recorded(0), 1u);
  EXPECT_EQ(rec.recorded(1), 1u);
  EXPECT_EQ(rec.recorded(2), 2u);
  EXPECT_EQ(rec.snapshot(1).front().event, TraceEvent::WatchdogArm);
}

std::string render_chrome_fixture() {
  // A fixed two-device event mix covering instants on both rings and a
  // fast-forward span (rendered as a duration).
  FlightRecorder rec(2, 8);
  rec.record(make_event(10, TraceEvent::LinkIrtry, 2, 0, 1, 2));
  rec.record(make_event(12, TraceEvent::WatchdogArm, 500, 0, 0, 6));
  rec.record(make_event(40, TraceEvent::FfSkipSpan, 25));
  rec.record(make_event(11, TraceEvent::RasDbe, 1, 1, 7, 4));
  rec.record(make_event(13, TraceEvent::VaultFailed, 8, 1, 7, 4));
  std::ostringstream os;
  rec.dump_chrome(os);
  return os.str();
}

TEST(FlightRecorder, ChromeDumpMatchesGoldenFile) {
  test::expect_golden("flight_recorder_chrome.json", render_chrome_fixture());
}

TEST(FlightRecorder, ChromeDumpIsWellFormedEnough) {
  const std::string got = render_chrome_fixture();
  EXPECT_EQ(got.front(), '{');
  EXPECT_NE(got.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(got.find("\"ph\":\"X\""), std::string::npos);  // the skip span
  EXPECT_NE(got.find("\"ph\":\"i\""), std::string::npos);  // instants
  // Balanced braces/brackets (cheap structural sanity without a parser).
  i64 braces = 0, brackets = 0;
  for (const char c : got) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

}  // namespace
}  // namespace hmcsim
