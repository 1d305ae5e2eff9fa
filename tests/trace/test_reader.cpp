#include "trace/reader.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/random.hpp"
#include "io/bounded_line.hpp"
#include "trace/series.hpp"

namespace hmcsim {
namespace {

TraceRecord sample() {
  TraceRecord rec;
  rec.event = TraceEvent::BankConflict;
  rec.stage = 3;
  rec.cycle = 987654321;
  rec.dev = 1;
  rec.link = kNoCoord;
  rec.quad = 2;
  rec.vault = 9;
  rec.bank = 4;
  rec.addr = 0x2BCDEF123ull;  // within the 34-bit ADRS field
  rec.tag = 511;
  rec.cmd = Command::PostedTwoAdd8;
  return rec;
}

void expect_same(const TraceRecord& a, const TraceRecord& b) {
  EXPECT_EQ(a.event, b.event);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.dev, b.dev);
  EXPECT_EQ(a.link, b.link);
  EXPECT_EQ(a.quad, b.quad);
  EXPECT_EQ(a.vault, b.vault);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.addr, b.addr);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.cmd, b.cmd);
}

TEST(TraceReader, RoundTripsTheWriterFormat) {
  const TraceRecord rec = sample();
  const auto parsed = parse_trace_line(TextSink::format(rec));
  ASSERT_TRUE(parsed.has_value());
  expect_same(rec, *parsed);
}

TEST(TraceReader, RoundTripsEveryEventAndCommand) {
  SplitMix64 rng(3);
  for (usize e = 0; e < kTraceEventCount; ++e) {
    for (u8 raw = 0; raw < 64; ++raw) {
      if (!is_valid_command(raw)) continue;
      TraceRecord rec = sample();
      rec.event = static_cast<TraceEvent>(e);
      rec.cmd = static_cast<Command>(raw);
      rec.cycle = rng.next();
      rec.addr = rng.next() & ((u64{1} << 34) - 1);
      const auto parsed = parse_trace_line(TextSink::format(rec));
      ASSERT_TRUE(parsed.has_value())
          << TextSink::format(rec);
      expect_same(rec, *parsed);
    }
  }
}

TEST(TraceReader, RejectsGarbage) {
  EXPECT_FALSE(parse_trace_line("").has_value());
  EXPECT_FALSE(parse_trace_line("random log output").has_value());
  EXPECT_FALSE(parse_trace_line("HMCSIM_TRACE : not-a-number : s1 : SEND : "
                                "0:0:0:0:0 : 0x0 : 0 : RD16")
                   .has_value());
  EXPECT_FALSE(parse_trace_line("HMCSIM_TRACE : 5 : s1 : BOGUS_EVENT : "
                                "0:0:0:0:0 : 0x0 : 0 : RD16")
                   .has_value());
  EXPECT_FALSE(parse_trace_line("HMCSIM_TRACE : 5 : s1 : SEND : 0:0:0:0 : "
                                "0x0 : 0 : RD16")
                   .has_value());  // 4 coords
  EXPECT_FALSE(parse_trace_line("HMCSIM_TRACE : 5 : s1 : SEND : 0:0:0:0:0 : "
                                "1234 : 0 : RD16")
                   .has_value());  // address without 0x
  EXPECT_FALSE(parse_trace_line("HMCSIM_TRACE : 5 : s1 : SEND : 0:0:0:0:0 : "
                                "0x0 : 0 : NOT_A_CMD")
                   .has_value());
  EXPECT_FALSE(parse_trace_line("HMCSIM_TRACE : 5 : s9 : SEND : 0:0:0:0:0 : "
                                "0x0 : 0 : RD16")
                   .has_value());  // stage out of range
}

TEST(TraceReader, SymbolLookups) {
  EXPECT_EQ(trace_event_from_string("BANK_CONFLICT"),
            TraceEvent::BankConflict);
  EXPECT_EQ(trace_event_from_string("RECV"), TraceEvent::PacketRecv);
  EXPECT_FALSE(trace_event_from_string("nope").has_value());
  EXPECT_EQ(command_from_string("P_WR128"), Command::PostedWr128);
  EXPECT_EQ(command_from_string("MD_RD_RS"), Command::ModeReadResponse);
  EXPECT_FALSE(command_from_string("WR256").has_value());
}

TEST(TraceReader, ReplayIntoCountingSink) {
  std::ostringstream text;
  TextSink writer(text);
  for (int i = 0; i < 5; ++i) {
    TraceRecord rec = sample();
    rec.cycle = static_cast<Cycle>(i);
    writer.record(rec);
  }
  text << "interleaved non-trace line\n";
  TraceRecord other = sample();
  other.event = TraceEvent::ReadRequest;
  writer.record(other);

  std::istringstream in(text.str());
  CountingSink counter;
  usize malformed = 0;
  const usize replayed = replay_trace(in, counter, &malformed);
  EXPECT_EQ(replayed, 6u);
  EXPECT_EQ(malformed, 1u);
  EXPECT_EQ(counter.count(TraceEvent::BankConflict), 5u);
  EXPECT_EQ(counter.count(TraceEvent::ReadRequest), 1u);
}

TEST(TraceReader, OverlongLineIsMalformedAndSkipped) {
  // One line a byte past the loaders' cap, then a valid record: the long
  // line is counted malformed without being buffered, and the record after
  // it still replays.
  std::ostringstream text;
  text << std::string(io::kMaxLineBytes + 1, 'x') << '\n';
  TextSink writer(text);
  writer.record(sample());

  std::istringstream in(text.str());
  CountingSink counter;
  usize malformed = 0;
  EXPECT_EQ(replay_trace(in, counter, &malformed), 1u);
  EXPECT_EQ(malformed, 1u);
  EXPECT_EQ(counter.count(TraceEvent::BankConflict), 1u);
}

TEST(TraceReader, ReplayRebuildsFigureFiveSeries) {
  // Write a synthetic trace, replay it into a VaultSeriesSink, and check
  // that the offline aggregation matches what an online sink would see.
  std::ostringstream text;
  TextSink writer(text);
  VaultSeriesSink online(4, 8);
  SplitMix64 rng(11);
  for (int i = 0; i < 500; ++i) {
    TraceRecord rec;
    rec.dev = 0;
    rec.cycle = rng.next_below(256);
    rec.vault = static_cast<u32>(rng.next_below(4));
    rec.event = (i % 3 == 0)   ? TraceEvent::BankConflict
                : (i % 3 == 1) ? TraceEvent::ReadRequest
                               : TraceEvent::WriteRequest;
    rec.cmd = Command::Rd64;
    writer.record(rec);
    online.record(rec);
  }

  std::istringstream in(text.str());
  VaultSeriesSink offline(4, 8);
  usize malformed = 0;
  (void)replay_trace(in, offline, &malformed);
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(offline.total_conflicts(), online.total_conflicts());
  EXPECT_EQ(offline.total_reads(), online.total_reads());
  EXPECT_EQ(offline.total_writes(), online.total_writes());
  ASSERT_EQ(offline.buckets().size(), online.buckets().size());
  for (usize b = 0; b < offline.buckets().size(); ++b) {
    EXPECT_EQ(offline.buckets()[b].conflicts, online.buckets()[b].conflicts);
    EXPECT_EQ(offline.buckets()[b].reads, online.buckets()[b].reads);
  }
}

}  // namespace
}  // namespace hmcsim
