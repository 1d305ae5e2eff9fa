#include "trace/lifecycle.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "tests/golden.hpp"
#include "trace/chrome.hpp"
#include "trace/reader.hpp"
#include "trace/tracer.hpp"

namespace hmcsim {
namespace {

PacketLifecycle sample_life() {
  PacketLifecycle lc;
  lc.inject = 10;
  lc.vault_arrive = 14;
  lc.first_conflict = 16;
  lc.retire = 25;
  lc.rsp_register = 27;
  lc.drain = 31;
  lc.dev = 0;
  lc.vault = 3;
  lc.link = 1;
  lc.tag = 7;
  lc.cmd = Command::Rd64;
  return lc;
}

TEST(LifecycleSegments, DecomposeAndSumToTotal) {
  const PacketLifecycle lc = sample_life();
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::Xbar), 4u);
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::VaultQueue), 2u);
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::BankConflict), 9u);
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::Response), 2u);
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::Drain), 4u);
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::Total), 21u);
  Cycle sum = 0;
  for (usize s = 0; s < kLifecycleSegmentCount - 1; ++s) {
    sum += segment_cycles(lc, static_cast<LifecycleSegment>(s));
  }
  EXPECT_EQ(sum, segment_cycles(lc, LifecycleSegment::Total));
}

TEST(LifecycleSegments, NoConflictCollapsesBankSegment) {
  PacketLifecycle lc = sample_life();
  lc.first_conflict = 0;
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::BankConflict), 0u);
  // The vault-queue segment then spans arrival -> retire.
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::VaultQueue), 11u);
  Cycle sum = 0;
  for (usize s = 0; s < kLifecycleSegmentCount - 1; ++s) {
    sum += segment_cycles(lc, static_cast<LifecycleSegment>(s));
  }
  EXPECT_EQ(sum, segment_cycles(lc, LifecycleSegment::Total));
}

TEST(LifecycleSegments, PartialStampsSaturateInsteadOfWrapping) {
  PacketLifecycle lc;  // all-zero: nothing stamped
  for (usize s = 0; s < kLifecycleSegmentCount; ++s) {
    EXPECT_EQ(segment_cycles(lc, static_cast<LifecycleSegment>(s)), 0u);
  }
  // Out-of-order stamps (possible only under a corrupted checkpoint) must
  // not produce ~0-sized segments.
  lc = sample_life();
  lc.first_conflict = lc.retire + 5;
  EXPECT_EQ(segment_cycles(lc, LifecycleSegment::BankConflict), 0u);
}

TEST(OpClassOf, ClassifiesTheCommandSet) {
  EXPECT_EQ(op_class_of(Command::Rd16), OpClass::Read);
  EXPECT_EQ(op_class_of(Command::Rd128), OpClass::Read);
  EXPECT_EQ(op_class_of(Command::Wr64), OpClass::Write);
  EXPECT_EQ(op_class_of(Command::PostedWr16), OpClass::Write);
  EXPECT_EQ(op_class_of(Command::Add16), OpClass::Atomic);
  EXPECT_EQ(op_class_of(Command::BitWrite), OpClass::Atomic);
  EXPECT_EQ(op_class_of(Command::Null), OpClass::Other);
}

TEST(LifecycleSink, AggregatesPerClassAndSegment) {
  LifecycleSink sink;
  PacketLifecycle rd = sample_life();
  rd.cmd = Command::Rd64;
  sink.complete(rd);
  sink.complete(rd);
  PacketLifecycle wr = sample_life();
  wr.cmd = Command::Wr64;
  wr.first_conflict = 0;  // never conflicted
  sink.complete(wr);

  EXPECT_EQ(sink.completed(), 3u);
  EXPECT_EQ(sink.conflicted(), 2u);
  EXPECT_EQ(sink.stats(OpClass::Read, LifecycleSegment::Total).count, 2u);
  EXPECT_EQ(sink.stats(OpClass::Write, LifecycleSegment::Total).count, 1u);
  EXPECT_EQ(sink.stats(OpClass::Atomic, LifecycleSegment::Total).count, 0u);
  EXPECT_EQ(sink.stats(OpClass::Read, LifecycleSegment::Xbar).sum, 8u);
  EXPECT_EQ(sink.merged(LifecycleSegment::Total).count, 3u);
  EXPECT_EQ(sink.merged(LifecycleSegment::Total).sum, 63u);

  sink.clear();
  EXPECT_EQ(sink.completed(), 0u);
  EXPECT_EQ(sink.merged(LifecycleSegment::Total).count, 0u);
}

TEST(LatencyStats, MergeFoldsHistograms) {
  LatencyStats a, b;
  a.add(3);
  a.add(100);
  b.add(7);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 110u);
  EXPECT_EQ(a.min, 3u);
  EXPECT_EQ(a.max, 100u);
  LatencyStats c;
  c.merge(a);
  EXPECT_EQ(c.count, 3u);
  c.merge(LatencyStats{});  // merging an empty summary is a no-op
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.min, 3u);
}

// ---- Chrome trace export ---------------------------------------------------

/// Minimal structural JSON scan: balanced braces/brackets outside strings,
/// terminated strings, valid escape pairs.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

usize count_occurrences(const std::string& text, const std::string& needle) {
  usize count = 0;
  for (usize pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ChromeTraceSink, EmptyRunIsValidJson) {
  std::ostringstream os;
  {
    ChromeTraceSink sink(os);
    sink.finish();
  }
  const std::string text = os.str();
  EXPECT_TRUE(json_balanced(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTraceSink, EmitsDurationChainAndFlows) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.complete(sample_life());
  PacketLifecycle second = sample_life();
  second.first_conflict = 0;
  second.tag = 8;
  sink.complete(second);
  sink.finish();
  EXPECT_EQ(sink.packets_emitted(), 2u);

  const std::string text = os.str();
  EXPECT_TRUE(json_balanced(text)) << text;
  // 5 duration events for the conflicted packet, 4 for the clean one.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), 9u);
  EXPECT_EQ(count_occurrences(text, "\"bank_conflict\""), 1u);
  // Two flow arrows (s/f pairs) per packet.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"s\""), 4u);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"f\""), 4u);
  // Track metadata: link and vault thread names plus the process name.
  EXPECT_EQ(count_occurrences(text, "\"thread_name\""), 2u);
  EXPECT_EQ(count_occurrences(text, "\"process_name\""), 1u);
  EXPECT_NE(text.find("\"vault 3\""), std::string::npos);
}

TEST(ChromeTraceSink, FinishIsIdempotentAndStopsAccepting) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.complete(sample_life());
  sink.finish();
  const std::string closed = os.str();
  sink.finish();
  sink.complete(sample_life());
  EXPECT_EQ(os.str(), closed);
  EXPECT_EQ(sink.packets_emitted(), 1u);
}

/// A fixed mix of lifecycles: a conflicted read, a clean write on another
/// vault of the same link, and a read on a second cube, so the export has
/// every duration kind, both flow directions and metadata for three tracks
/// on one cube and two on the other.
std::string render_lifecycle_chrome() {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.complete(sample_life());
  PacketLifecycle write = sample_life();
  write.first_conflict = 0;
  write.vault = 5;
  write.tag = 8;
  write.cmd = Command::Wr64;
  sink.complete(write);
  PacketLifecycle remote = sample_life();
  remote.inject = 40;
  remote.vault_arrive = 47;
  remote.first_conflict = 0;
  remote.retire = 60;
  remote.rsp_register = 61;
  remote.drain = 70;
  remote.dev = 1;
  remote.link = 2;
  remote.tag = 9;
  sink.complete(remote);
  sink.finish();
  return os.str();
}

TEST(ChromeTraceSink, LifecycleExportMatchesGoldenFile) {
  test::expect_golden("lifecycle_chrome.json", render_lifecycle_chrome());
}

// ---- level gating and text round-trip of the new event ---------------------

TEST(TraceLevels, EveryEventGatesExactlyAtItsLevel) {
  // Table-driven: for every (event, configured level) pair, the tracer
  // must enable the event iff the level reaches level_for(event).  The
  // kinds of no level stay off at every level.
  const TraceLevel levels[] = {TraceLevel::Off, TraceLevel::Stalls,
                               TraceLevel::Events, TraceLevel::SubCycle};
  Tracer tracer;
  tracer.add_sink(std::make_shared<CountingSink>());
  for (const TraceLevel level : levels) {
    tracer.set_level(level);
    for (usize e = 0; e < kTraceEventCount; ++e) {
      const auto event = static_cast<TraceEvent>(e);
      const std::optional<TraceLevel> min = level_for(event);
      const bool expected =
          level != TraceLevel::Off && min.has_value() && *min <= level;
      EXPECT_EQ(tracer.enabled(event), expected)
          << to_string(event) << " at level " << static_cast<int>(level);
    }
  }
}

TEST(TraceLevels, VaultArrivalIsSubCycle) {
  EXPECT_EQ(level_for(TraceEvent::VaultArrival), TraceLevel::SubCycle);
  EXPECT_EQ(to_string(TraceEvent::VaultArrival), "VAULT_ARRIVAL");
}

TEST(TraceReaderLifecycle, VaultArrivalRoundTrips) {
  TraceRecord rec;
  rec.event = TraceEvent::VaultArrival;
  rec.stage = 2;
  rec.cycle = 777;
  rec.dev = 0;
  rec.link = 1;
  rec.quad = 0;
  rec.vault = 2;
  rec.bank = kNoCoord;
  rec.addr = 0x1000;
  rec.tag = 12;
  rec.cmd = Command::Wr32;
  const auto parsed = parse_trace_line(TextSink::format(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->event, TraceEvent::VaultArrival);
  EXPECT_EQ(parsed->cycle, 777u);
  EXPECT_EQ(parsed->vault, 2u);
  EXPECT_EQ(parsed->cmd, Command::Wr32);
}

}  // namespace
}  // namespace hmcsim
