// Simulator-level observability tests: lifecycle of the profiler /
// telemetry / flight-recorder attachments, sampling cadence, fast-forward
// skip accounting, the watchdog post-mortem dump, the JSON report
// sections, and a golden pin of the whole event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/json.hpp"
#include "core/simulator.hpp"
#include "helpers.hpp"
#include "packet/crc32.hpp"
#include "topo/topology.hpp"
#include "tests/golden.hpp"
#include "trace/sink.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

namespace hmcsim {
namespace {

using test::await_response;
using test::make_simple_sim;
using test::send_request;
using test::small_device;

bool has_event(const std::vector<TraceRecord>& events, TraceEvent event) {
  return std::any_of(events.begin(), events.end(),
                     [event](const TraceRecord& e) { return e.event == event; });
}

TEST(ObservabilitySim, AccessorsNullWhenOff) {
  Simulator sim = make_simple_sim();
  EXPECT_EQ(sim.profiler(), nullptr);
  EXPECT_EQ(sim.telemetry(), nullptr);
  EXPECT_EQ(sim.flight_recorder(), nullptr);
  std::ostringstream os;
  EXPECT_FALSE(sim.dump_flight_recorder(os));
  EXPECT_FALSE(sim.dump_flight_recorder_chrome(os));
  EXPECT_TRUE(os.str().empty());
}

TEST(ObservabilitySim, ProfilerCountsStagedCycles) {
  DeviceConfig dc = small_device();
  dc.self_profile = true;
  dc.fast_forward = false;
  Simulator sim = make_simple_sim(dc);
  ASSERT_NE(sim.profiler(), nullptr);
  EXPECT_EQ(sim.profiler()->num_devices(), 1u);
  EXPECT_EQ(sim.profiler()->vaults_per_device(), dc.num_vaults());

  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd32, 0x1000, 1), Status::Ok);
  ASSERT_TRUE(await_response(sim, 0, 0).has_value());
  EXPECT_EQ(sim.profiler()->staged_cycles(), sim.now());
  EXPECT_EQ(sim.profiler()->fast_cycles(), 0u);
}

TEST(ObservabilitySim, ProfilerAccountsFastForwardSkips) {
  DeviceConfig dc = small_device();
  dc.self_profile = true;
  ASSERT_TRUE(dc.fast_forward);
  Simulator sim = make_simple_sim(dc);
  ASSERT_NE(sim.profiler(), nullptr);

  for (u32 i = 0; i < 200; ++i) sim.clock();
  sim.flush_observability();
  const StageProfiler& prof = *sim.profiler();
  EXPECT_EQ(prof.staged_cycles() + prof.fast_cycles(), sim.now());
  EXPECT_GT(prof.fast_cycles(), 0u);
  EXPECT_GE(prof.skip_spans(), 1u);
}

TEST(ObservabilitySim, TelemetrySamplesAtConfiguredInterval) {
  DeviceConfig dc = small_device();
  dc.telemetry_interval_cycles = 4;
  dc.fast_forward = false;
  Simulator sim = make_simple_sim(dc);
  ASSERT_NE(sim.telemetry(), nullptr);

  for (u32 i = 0; i < 20; ++i) sim.clock();
  EXPECT_EQ(sim.telemetry()->rows().size(), 5u);  // cycles 4,8,12,16,20
  // Idle queues: every sampled occupancy is zero.
  const OccupancyTrack& t = sim.telemetry()->track(TelemetryTrack::VaultRqst, 0);
  EXPECT_GT(t.samples, 0u);
  EXPECT_EQ(t.high_water, 0u);
}

TEST(ObservabilitySim, TelemetrySamplingSurvivesFastForward) {
  DeviceConfig dc = small_device();
  dc.telemetry_interval_cycles = 8;
  ASSERT_TRUE(dc.fast_forward);
  Simulator sim = make_simple_sim(dc);

  for (u32 i = 0; i < 64; ++i) sim.clock();
  // Fast-forward must stop at every sample cycle: 8,16,...,64 -> 8 passes.
  EXPECT_EQ(sim.telemetry()->rows().size(), 8u);
}

TEST(ObservabilitySim, TelemetryObservesBusyQueues) {
  DeviceConfig dc = small_device();
  dc.telemetry_interval_cycles = 1;
  dc.bank_busy_cycles = 16;  // keep requests queued across samples
  Simulator sim = make_simple_sim(dc);

  for (u32 i = 0; i < 8; ++i) {
    ASSERT_EQ(send_request(sim, 0, 0, Command::Rd32, PhysAddr{0x1000} * (i + 1),
                           static_cast<Tag>(i + 1)),
              Status::Ok);
  }
  test::drain_all(sim);
  const Telemetry& tel = *sim.telemetry();
  const u64 vault_hw = tel.track(TelemetryTrack::VaultRqst, 0).high_water;
  const u64 xbar_hw = tel.track(TelemetryTrack::XbarRqst, 0).high_water;
  EXPECT_GT(vault_hw + xbar_hw, 0u);
}

TEST(TelemetryRows, OneRowPerPassOnTheInterval) {
  DeviceConfig dc = small_device();
  dc.telemetry_interval_cycles = 10;
  ASSERT_TRUE(dc.fast_forward);
  Simulator sim = make_simple_sim(dc);

  for (int i = 0; i < 35; ++i) sim.clock();
  const std::vector<TelemetryRow>& rows = sim.telemetry()->rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].cycle, 10u);
  EXPECT_EQ(rows[1].cycle, 20u);
  EXPECT_EQ(rows[2].cycle, 30u);
}

TEST(TelemetryRows, RowSumsQueuedWorkAndReadsTheCounters) {
  // A tiny vault queue and a long bank busy time: eight same-bank reads
  // back up into the crossbar, conflict and stall it.
  DeviceConfig dc = small_device();
  dc.vault_depth = 2;
  dc.bank_busy_cycles = 50;
  dc.telemetry_interval_cycles = 1;
  Simulator sim = make_simple_sim(dc);
  for (Tag t = 0; t < 8; ++t) {
    ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0, t), Status::Ok);
  }
  for (int i = 0; i < 6; ++i) sim.clock();

  const TelemetryRow& row = sim.telemetry()->rows().back();
  EXPECT_EQ(row.cycle, 6u);
  // Nothing has reached the host yet: every packet sits in some queue.
  EXPECT_EQ(row.link_rqst + row.link_rsp + row.vault_rqst + row.vault_rsp,
            8u);
  EXPECT_GT(row.link_rqst, 0u);
  EXPECT_GT(row.vault_rqst, 0u);
  EXPECT_EQ(row.mode_rsp, 0u);
  const DeviceStats& st = sim.stats(0);
  EXPECT_GT(row.xbar_rqst_stalls, 0u);
  EXPECT_GT(row.bank_conflicts, 0u);
  EXPECT_EQ(row.bank_conflicts, st.bank_conflicts);
  EXPECT_EQ(row.xbar_rqst_stalls, st.xbar_rqst_stalls);
  EXPECT_EQ(row.xbar_rsp_stalls, st.xbar_rsp_stalls);
  EXPECT_EQ(row.vault_rsp_stalls, st.vault_rsp_stalls);
  EXPECT_EQ(row.send_stalls, st.send_stalls);

  EXPECT_EQ(test::drain_all(sim, 2000).size(), 8u);
  const TelemetryRow& idle = sim.telemetry()->rows().back();
  EXPECT_EQ(idle.link_rqst + idle.vault_rqst + idle.vault_rsp, 0u);
}

TEST(TelemetryRows, CsvHasHeaderAndOneLinePerRow) {
  DeviceConfig dc = small_device();
  dc.telemetry_interval_cycles = 5;
  Simulator sim = make_simple_sim(dc);
  for (int i = 0; i < 12; ++i) sim.clock();
  ASSERT_EQ(sim.telemetry()->rows().size(), 2u);

  std::ostringstream os;
  sim.telemetry()->write_csv(os);
  const std::string text = os.str();
  EXPECT_EQ(text.find("cycle,link_rqst,link_rsp,vault_rqst,vault_rsp,"
                      "mode_rsp,bank_conflicts,xbar_rqst_stalls,"
                      "xbar_rsp_stalls,vault_rsp_stalls,send_stalls\n"),
            0u);
  EXPECT_NE(text.find("\n5,0,0,0,0,0,0,0,0,0,0\n10,"), std::string::npos)
      << text;
  usize lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1u + sim.telemetry()->rows().size());
}

TEST(ObservabilitySim, FlightRecorderCapturesSkipSpans) {
  DeviceConfig dc = small_device();
  dc.flight_recorder_depth = 16;
  ASSERT_TRUE(dc.fast_forward);
  Simulator sim = make_simple_sim(dc);
  ASSERT_NE(sim.flight_recorder(), nullptr);
  EXPECT_EQ(sim.flight_recorder()->depth(), 16u);

  for (u32 i = 0; i < 100; ++i) sim.clock();
  sim.flush_observability();
  const std::vector<TraceRecord> events = sim.flight_recorder()->snapshot(0);
  ASSERT_TRUE(has_event(events, TraceEvent::FfSkipSpan));
  for (const TraceRecord& ev : events) {
    if (ev.event != TraceEvent::FfSkipSpan) continue;
    EXPECT_GT(ev.arg, 0u);          // span length
    EXPECT_LE(ev.cycle, sim.now());  // stamped at span end
  }
}

TEST(ObservabilitySim, WatchdogFireRecordsArmAndFireAndDumpsTail) {
  DeviceConfig dc = small_device();
  dc.watchdog_cycles = 50;
  dc.flight_recorder_depth = 64;
  dc.link_protocol = true;
  dc.link_retry_limit = 8;
  dc.fast_forward = false;
  Simulator sim = make_simple_sim(dc);

  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd32, 0x1000, 1), Status::Ok);
  // Wedge every bank in every vault so the request can never retire.
  for (VaultState& vault : sim.device(0).vaults) {
    for (Cycle& busy : vault.bank_busy_until) busy = ~Cycle{0};
  }
  for (u32 i = 0; i < 500 && !sim.watchdog_fired(); ++i) sim.clock();
  ASSERT_TRUE(sim.watchdog_fired());

  const std::vector<TraceRecord> events = sim.flight_recorder()->snapshot(0);
  EXPECT_TRUE(has_event(events, TraceEvent::WatchdogArm));
  EXPECT_TRUE(has_event(events, TraceEvent::WatchdogFire));

  const std::string& report = sim.watchdog_report();
  EXPECT_NE(report.find("flight recorder tail"), std::string::npos);
  EXPECT_NE(report.find("WATCHDOG_FIRE"), std::string::npos);
  // Satellite: link-protocol state rides along in the diagnostic.
  EXPECT_NE(report.find("proto:"), std::string::npos);
  EXPECT_NE(report.find("retry_buf_flits="), std::string::npos);
}

TEST(ObservabilitySim, WatchdogEmulationUnderFastForwardMatchesStaged) {
  // A host that parks its responses: four reads, one per link, never
  // received.  The machine is stalled (responses wait in the host links)
  // with nothing left to do, so the skipping run spends the stall inside a
  // skip and the watchdog trips there.  The trip cycle, the recorder's
  // records and a checkpoint saved mid-skip must match a run that stages
  // every cycle.
  DeviceConfig dc = small_device();
  dc.watchdog_cycles = 200;
  dc.flight_recorder_depth = 64;
  using Record = std::tuple<TraceEvent, u8, Cycle, u32, u32, u32, u32, u32,
                            PhysAddr, Tag, Command, u64>;
  struct Run {
    Cycle tripped{0};
    u64 skipped{0};
    u64 skipped_at_save{0};
    std::string mid_skip;
    /// Every record but FF_SKIP_SPAN, which only a skipping run files.
    std::vector<Record> records;
    u64 span_cycles{0};
  };

  auto run = [&dc](bool fast_forward) {
    dc.fast_forward = fast_forward;
    Simulator sim = make_simple_sim(dc);
    for (u32 link = 0; link < dc.num_links; ++link) {
      EXPECT_EQ(send_request(sim, 0, link, Command::Rd16,
                             PhysAddr{0x40} * link,
                             static_cast<Tag>(link + 1)),
                Status::Ok);
    }
    Run out;
    for (u32 i = 0; i < 1000 && !sim.watchdog_fired(); ++i) {
      sim.clock();
      if (sim.now() == 100) {
        std::ostringstream os;
        EXPECT_EQ(sim.save_checkpoint(os), Status::Ok);
        out.mid_skip = std::move(os).str();
        out.skipped_at_save = sim.cycles_skipped();
      }
    }
    EXPECT_TRUE(sim.watchdog_fired());
    out.tripped = sim.now();
    out.skipped = sim.cycles_skipped();
    for (const TraceRecord& r : sim.flight_recorder()->snapshot(0)) {
      if (r.event == TraceEvent::FfSkipSpan) {
        out.span_cycles += r.arg;
        continue;
      }
      out.records.emplace_back(r.event, r.stage, r.cycle, r.dev, r.link,
                               r.quad, r.vault, r.bank, r.addr, r.tag, r.cmd,
                               r.arg);
    }
    return out;
  };
  const Run staged = run(false);
  const Run skipping = run(true);
  EXPECT_EQ(staged.tripped, 205u);
  EXPECT_EQ(skipping.tripped, staged.tripped);
  EXPECT_EQ(staged.skipped, 0u);
  EXPECT_GT(skipping.skipped, 0u);
  EXPECT_GT(skipping.skipped_at_save, 0u) << "the save was not mid-skip";
  EXPECT_EQ(skipping.span_cycles, skipping.skipped);
  EXPECT_EQ(skipping.mid_skip, staged.mid_skip);
  EXPECT_EQ(skipping.records, staged.records);
  // The last stall began 199 clocks before the trip; both records carry
  // the threshold.
  ASSERT_GE(staged.records.size(), 2u);
  const Record& onset = staged.records[staged.records.size() - 2];
  const Record& fire = staged.records.back();
  EXPECT_EQ(std::get<0>(onset), TraceEvent::WatchdogArm);
  EXPECT_EQ(std::get<2>(onset), 6u);
  EXPECT_EQ(std::get<11>(onset), 200u);
  EXPECT_EQ(std::get<0>(fire), TraceEvent::WatchdogFire);
  EXPECT_EQ(std::get<2>(fire), 205u);
  EXPECT_EQ(std::get<11>(fire), 200u);
}

TEST(ObservabilitySim, JsonReportHasObservabilitySections) {
  DeviceConfig dc = small_device();
  dc.self_profile = true;
  dc.telemetry_interval_cycles = 4;
  dc.flight_recorder_depth = 32;
  Simulator sim = make_simple_sim(dc);

  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd32, 0x1000, 1), Status::Ok);
  ASSERT_TRUE(await_response(sim, 0, 0).has_value());
  sim.flush_observability();

  std::ostringstream os;
  write_stats_json(os, sim);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"stage1_child_xbar\""), std::string::npos);
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"vault_rqst\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(json.find("\"self_profile\":true"), std::string::npos);
  EXPECT_NE(json.find("\"telemetry_interval_cycles\":4"), std::string::npos);
  EXPECT_NE(json.find("\"flight_recorder_depth\":32"), std::string::npos);
}

TEST(ObservabilitySim, JsonReportOmitsSectionsWhenOff) {
  Simulator sim = make_simple_sim();
  std::ostringstream os;
  write_stats_json(os, sim);
  const std::string json = os.str();
  EXPECT_EQ(json.find("\"profile\""), std::string::npos);
  EXPECT_EQ(json.find("\"telemetry\""), std::string::npos);
  EXPECT_EQ(json.find("\"flight_recorder\""), std::string::npos);
  // The config keys still report the off state.
  EXPECT_NE(json.find("\"self_profile\":false"), std::string::npos);
}

TEST(ObservabilitySim, InitAndRestoreKeepOneRingAndUserSinks) {
  DeviceConfig dc = small_device();
  dc.flight_recorder_depth = 16;
  Simulator sim = make_simple_sim(dc);
  auto counts = std::make_shared<CountingSink>();
  sim.tracer().set_level(TraceLevel::SubCycle);
  sim.tracer().add_sink(counts);

  // An init without a recorder detaches the ring...
  dc.flight_recorder_depth = 0;
  ASSERT_EQ(sim.init_simple(dc), Status::Ok);
  EXPECT_EQ(sim.flight_recorder(), nullptr);
  EXPECT_FALSE(sim.tracer().enabled(TraceEvent::FfSkipSpan));
  // ...and repeated inits and a restore with one leave exactly one ring.
  dc.flight_recorder_depth = 16;
  ASSERT_EQ(sim.init_simple(dc), Status::Ok);
  ASSERT_EQ(sim.init_simple(dc), Status::Ok);
  std::stringstream ckpt;
  ASSERT_EQ(sim.save_checkpoint(ckpt), Status::Ok);
  ASSERT_EQ(sim.restore_checkpoint(ckpt), Status::Ok);
  ASSERT_NE(sim.flight_recorder(), nullptr);

  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd32, 0x1000, 1), Status::Ok);
  ASSERT_TRUE(await_response(sim, 0, 0).has_value());
  for (u32 i = 0; i < 100; ++i) sim.clock();
  sim.flush_observability();
  // The user sink still follows the level (and never sees ring kinds); the
  // ring filed the one skip span once.
  EXPECT_EQ(counts->count(TraceEvent::PacketSend), 1u);
  EXPECT_EQ(counts->count(TraceEvent::FfSkipSpan), 0u);
  EXPECT_EQ(sim.flight_recorder()->recorded(0), 1u);
  EXPECT_TRUE(has_event(sim.flight_recorder()->snapshot(0),
                        TraceEvent::FfSkipSpan));
}

TEST(ObservabilitySim, ResetClearsObservability) {
  DeviceConfig dc = small_device();
  dc.self_profile = true;
  dc.telemetry_interval_cycles = 2;
  dc.flight_recorder_depth = 8;
  Simulator sim = make_simple_sim(dc);

  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd32, 0x1000, 1), Status::Ok);
  ASSERT_TRUE(await_response(sim, 0, 0).has_value());
  ASSERT_GT(sim.profiler()->staged_cycles(), 0u);

  sim.reset();
  ASSERT_NE(sim.profiler(), nullptr);
  EXPECT_EQ(sim.profiler()->staged_cycles(), 0u);
  EXPECT_TRUE(sim.telemetry()->rows().empty());
  EXPECT_EQ(sim.flight_recorder()->recorded(0), 0u);
}

/// One fixed scenario that drives the whole event stream: a 3-cube chain
/// with the link protocol under a burst storm, DRAM SBE/DBE faults that fail
/// vaults, a watchdog that arms on stalled cycles, and idle windows long
/// enough for fast-forward spans.  Returns the golden text: the line count
/// and CRC of the level-3 text trace, each device's ring counts, and the
/// ring's text dump.
std::string render_event_stream() {
  DeviceConfig dc = small_device();
  dc.num_links = 8;
  dc.link_protocol = true;
  dc.link_retry_limit = 8;
  dc.link_retry_latency = 4;
  dc.link_error_rate_ppm = 20000;
  dc.link_error_burst_len = 4;
  dc.dram_sbe_rate_ppm = 20000;
  dc.dram_dbe_rate_ppm = 4000;
  dc.vault_fail_threshold = 1;
  dc.watchdog_cycles = 2000;
  dc.flight_recorder_depth = 32;
  SimConfig sc;
  sc.num_devices = 3;
  sc.device = dc;
  std::string diag;
  Topology topo = make_chain(3, dc.num_links, /*host_links=*/2,
                             /*trunk_links=*/2, &diag);
  Simulator sim;
  EXPECT_EQ(sim.init(sc, std::move(topo), &diag), Status::Ok) << diag;

  std::ostringstream text;
  sim.tracer().set_level(TraceLevel::SubCycle);
  sim.tracer().add_sink(std::make_shared<TextSink>(text));

  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  gc.seed = 1234;
  RandomAccessGenerator gen(gc);
  // Three traffic phases.  Each drains completely and all but the last is
  // followed by an idle window, which fast-forward skips.
  for (u32 phase = 0; phase < 3; ++phase) {
    if (phase != 0) {
      for (u32 i = 0; i < 500; ++i) sim.clock();
    }
    DriverConfig dcfg;
    dcfg.total_requests = 400;
    dcfg.max_cycles = 200000;
    dcfg.targets = TargetPolicy::RoundRobinCubes;
    HostDriver driver(sim, gen, dcfg);
    const DriverResult r = driver.run();
    EXPECT_EQ(r.completed, dcfg.total_requests);
  }
  EXPECT_GT(sim.cycles_skipped(), 0u);
  sim.flush_observability();

  const std::string stream = text.str();
  std::ostringstream out;
  out << "text_lines " << std::count(stream.begin(), stream.end(), '\n')
      << "\ntext_crc 0x" << std::hex
      << crc::crc32k({reinterpret_cast<const u8*>(stream.data()),
                      stream.size()})
      << std::dec << '\n';
  const FlightRecorder* rec = sim.flight_recorder();
  EXPECT_NE(rec, nullptr);
  if (rec == nullptr) return out.str();
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    out << "dev " << d << " recorded " << rec->recorded(d) << " retained "
        << rec->size(d) << '\n';
  }
  sim.dump_flight_recorder(out);
  return out.str();
}

TEST(ObservabilitySim, EventStreamMatchesGolden) {
  test::expect_golden("event_stream_chain3.txt", render_event_stream());
}

}  // namespace
}  // namespace hmcsim
