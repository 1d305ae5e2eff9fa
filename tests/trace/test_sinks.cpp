#include "trace/sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "trace/tracer.hpp"

namespace hmcsim {
namespace {

TraceRecord sample_record() {
  TraceRecord rec;
  rec.event = TraceEvent::BankConflict;
  rec.stage = 3;
  rec.cycle = 1234;
  rec.dev = 0;
  rec.vault = 5;
  rec.bank = 2;
  rec.addr = 0xABCD;
  rec.tag = 42;
  rec.cmd = Command::Rd64;
  return rec;
}

TEST(TextSink, FormatsLocalityAndClock) {
  const std::string line = TextSink::format(sample_record());
  // Every trace event is marked with its physical locality and the clock
  // tick at which it was raised (§IV.E).
  EXPECT_NE(line.find("1234"), std::string::npos);
  EXPECT_NE(line.find("BANK_CONFLICT"), std::string::npos);
  EXPECT_NE(line.find("s3"), std::string::npos);
  EXPECT_NE(line.find("0xabcd"), std::string::npos);
  EXPECT_NE(line.find("RD64"), std::string::npos);
  EXPECT_NE(line.find("HMCSIM_TRACE"), std::string::npos);
}

TEST(TextSink, NotApplicableCoordsRenderAsDash) {
  TraceRecord rec = sample_record();
  rec.link = kNoCoord;
  rec.quad = kNoCoord;
  const std::string line = TextSink::format(rec);
  EXPECT_NE(line.find(":-:"), std::string::npos);
}

TEST(TextSink, WritesOneLinePerRecord) {
  std::ostringstream os;
  TextSink sink(os);
  sink.record(sample_record());
  sink.record(sample_record());
  sink.flush();
  const std::string text = os.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(MemorySink, RetainsRecords) {
  MemorySink sink;
  sink.record(sample_record());
  TraceRecord second = sample_record();
  second.cycle = 9999;
  sink.record(second);
  ASSERT_EQ(sink.records().size(), 2u);
  EXPECT_EQ(sink.records()[0].cycle, 1234u);
  EXPECT_EQ(sink.records()[1].cycle, 9999u);
  EXPECT_EQ(sink.total_recorded(), 2u);
}

TEST(MemorySink, BoundedModeKeepsRecentWindow) {
  MemorySink sink(4);
  for (u64 i = 0; i < 10; ++i) {
    TraceRecord rec = sample_record();
    rec.cycle = i;
    sink.record(rec);
  }
  EXPECT_EQ(sink.total_recorded(), 10u);
  // The last 4 records, oldest first.
  std::vector<Cycle> cycles;
  for (const TraceRecord& rec : sink.records()) cycles.push_back(rec.cycle);
  EXPECT_EQ(cycles, (std::vector<Cycle>{6, 7, 8, 9}));
}

TEST(CountingSink, CountsPerEvent) {
  CountingSink sink;
  TraceRecord rec = sample_record();
  sink.record(rec);
  sink.record(rec);
  rec.event = TraceEvent::ReadRequest;
  sink.record(rec);
  EXPECT_EQ(sink.count(TraceEvent::BankConflict), 2u);
  EXPECT_EQ(sink.count(TraceEvent::ReadRequest), 1u);
  EXPECT_EQ(sink.count(TraceEvent::WriteRequest), 0u);
  EXPECT_EQ(sink.total(), 3u);
  sink.clear();
  EXPECT_EQ(sink.total(), 0u);
}

TEST(Tracer, LevelGatesEvents) {
  Tracer tracer;
  auto sink = std::make_shared<CountingSink>();
  tracer.add_sink(sink);

  tracer.set_level(TraceLevel::Off);
  EXPECT_FALSE(tracer.enabled(TraceEvent::BankConflict));
  EXPECT_FALSE(tracer.enabled(TraceEvent::ReadRequest));

  tracer.set_level(TraceLevel::Stalls);
  EXPECT_TRUE(tracer.enabled(TraceEvent::BankConflict));
  EXPECT_TRUE(tracer.enabled(TraceEvent::XbarRqstStall));
  EXPECT_FALSE(tracer.enabled(TraceEvent::ReadRequest));
  EXPECT_FALSE(tracer.enabled(TraceEvent::RouteHop));

  tracer.set_level(TraceLevel::Events);
  EXPECT_TRUE(tracer.enabled(TraceEvent::ReadRequest));
  EXPECT_FALSE(tracer.enabled(TraceEvent::PacketSend));

  tracer.set_level(TraceLevel::SubCycle);
  EXPECT_TRUE(tracer.enabled(TraceEvent::PacketSend));
  EXPECT_TRUE(tracer.enabled(TraceEvent::RouteHop));
}

TEST(Tracer, NoSinksMeansDisabled) {
  Tracer tracer;
  tracer.set_level(TraceLevel::SubCycle);
  EXPECT_FALSE(tracer.enabled(TraceEvent::BankConflict));
}

TEST(Tracer, EmitFansOutToAllSinks) {
  Tracer tracer;
  auto a = std::make_shared<CountingSink>();
  auto b = std::make_shared<MemorySink>();
  tracer.add_sink(a);
  tracer.add_sink(b);
  tracer.set_level(TraceLevel::SubCycle);
  tracer.emit_if_enabled(sample_record());
  EXPECT_EQ(a->total(), 1u);
  EXPECT_EQ(b->records().size(), 1u);
}

TEST(Tracer, EmitIfEnabledRespectsLevel) {
  Tracer tracer;
  auto sink = std::make_shared<CountingSink>();
  tracer.add_sink(sink);
  tracer.set_level(TraceLevel::Stalls);
  TraceRecord rec = sample_record();
  rec.event = TraceEvent::ReadRequest;  // Events-level; gated out
  tracer.emit_if_enabled(rec);
  EXPECT_EQ(sink->total(), 0u);
  rec.event = TraceEvent::BankConflict;
  tracer.emit_if_enabled(rec);
  EXPECT_EQ(sink->total(), 1u);
}

TEST(TraceEventNames, AllDistinct) {
  std::set<std::string_view> names;
  for (usize i = 0; i < kTraceEventCount; ++i) {
    EXPECT_TRUE(names.insert(to_string(static_cast<TraceEvent>(i))).second);
  }
}

}  // namespace
}  // namespace hmcsim
