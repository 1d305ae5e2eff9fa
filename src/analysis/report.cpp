#include "analysis/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace hmcsim {

Fig5Summary summarize_series(const VaultSeriesSink& series) {
  Fig5Summary s;
  const auto& buckets = series.buckets();
  if (buckets.empty()) return s;
  s.cycles = static_cast<Cycle>(buckets.size()) * series.bucket_width();
  s.total_conflicts = series.total_conflicts();
  s.total_reads = series.total_reads();
  s.total_writes = series.total_writes();
  s.total_xbar_stalls = series.total_xbar_stalls();
  s.total_latency_penalties = series.total_latency_penalties();
  const double cycles = static_cast<double>(s.cycles);
  s.mean_conflicts_per_cycle = static_cast<double>(s.total_conflicts) / cycles;
  s.mean_reads_per_cycle = static_cast<double>(s.total_reads) / cycles;
  s.mean_writes_per_cycle = static_cast<double>(s.total_writes) / cycles;

  const double width = static_cast<double>(series.bucket_width());
  for (const auto& b : buckets) {
    u64 conflicts = 0;
    for (const u32 v : b.conflicts) conflicts += v;
    s.peak_conflicts_per_cycle = std::max(
        s.peak_conflicts_per_cycle, static_cast<double>(conflicts) / width);
  }
  return s;
}

void write_fig5_csv(std::ostream& os, const VaultSeriesSink& series) {
  os << "cycle,xbar_stalls,latency_penalties,conflicts,reads,writes";
  for (u32 v = 0; v < series.vaults(); ++v) os << ",conflicts_v" << v;
  for (u32 v = 0; v < series.vaults(); ++v) os << ",reads_v" << v;
  for (u32 v = 0; v < series.vaults(); ++v) os << ",writes_v" << v;
  os << '\n';
  for (const auto& b : series.buckets()) {
    u64 conflicts = 0, reads = 0, writes = 0;
    for (const u32 x : b.conflicts) conflicts += x;
    for (const u32 x : b.reads) reads += x;
    for (const u32 x : b.writes) writes += x;
    os << b.first_cycle << ',' << b.xbar_stalls << ',' << b.latency_penalties
       << ',' << conflicts << ',' << reads << ',' << writes;
    for (const u32 x : b.conflicts) os << ',' << x;
    for (const u32 x : b.reads) os << ',' << x;
    for (const u32 x : b.writes) os << ',' << x;
    os << '\n';
  }
}

std::string format_table1(const std::vector<Table1Row>& rows) {
  std::ostringstream os;
  os << "Simulation Runtime in Clock Cycles\n";
  os << std::left << std::setw(28) << "Device Configuration" << std::right
     << std::setw(16) << "Cycles" << std::setw(12) << "Speedup" << '\n';
  const double base =
      rows.empty() ? 1.0 : static_cast<double>(rows.front().cycles);
  for (const auto& row : rows) {
    os << std::left << std::setw(28) << row.label << std::right
       << std::setw(16) << row.cycles << std::setw(11) << std::fixed
       << std::setprecision(3)
       << (row.cycles == 0 ? 0.0 : base / static_cast<double>(row.cycles))
       << "x\n";
  }
  return os.str();
}

std::string format_latency_breakdown(const LifecycleSink& sink) {
  if (sink.completed() == 0) return {};
  std::ostringstream os;
  os << "Latency Breakdown (cycles per packet)\n";
  os << std::left << std::setw(16) << "Segment" << std::right << std::setw(10)
     << "Count" << std::setw(10) << "Mean" << std::setw(8) << "p50"
     << std::setw(8) << "p95" << std::setw(8) << "p99" << '\n';
  const auto row = [&os](std::string_view label, const LatencyStats& s) {
    if (s.count == 0) return;
    os << std::left << std::setw(16) << label << std::right << std::setw(10)
       << s.count << std::setw(10) << std::fixed << std::setprecision(1)
       << s.mean() << std::setw(8) << std::setprecision(0) << s.percentile(0.50)
       << std::setw(8) << s.percentile(0.95) << std::setw(8)
       << s.percentile(0.99) << '\n';
  };
  for (usize seg = 0; seg < kLifecycleSegmentCount; ++seg) {
    row(to_string(static_cast<LifecycleSegment>(seg)),
        sink.merged(static_cast<LifecycleSegment>(seg)));
  }
  for (usize c = 0; c < kOpClassCount; ++c) {
    const auto cls = static_cast<OpClass>(c);
    std::string label = "total (";
    label += to_string(cls);
    label += ')';
    row(label, sink.stats(cls, LifecycleSegment::Total));
  }
  os << "conflicted packets: " << sink.conflicted() << " / "
     << sink.completed() << '\n';
  return os.str();
}

std::string format_profile_table(const Simulator& sim) {
  const StageProfiler* prof = sim.profiler();
  if (prof == nullptr) return {};
  const u64 total_ns = prof->total_ns();
  const u64 cycles = prof->staged_cycles() + prof->fast_cycles();
  std::ostringstream os;
  os << "Self-Profile (clock-engine wall time)\n";
  os << std::left << std::setw(20) << "Stage" << std::right << std::setw(14)
     << "Time(ms)" << std::setw(8) << "%" << std::setw(12) << "ns/cycle"
     << '\n';
  const auto row = [&](std::string_view label, u64 ns) {
    os << std::left << std::setw(20) << label << std::right << std::setw(14)
       << std::fixed << std::setprecision(3)
       << static_cast<double>(ns) / 1e6 << std::setw(8)
       << std::setprecision(1)
       << (total_ns == 0 ? 0.0
                         : 100.0 * static_cast<double>(ns) /
                               static_cast<double>(total_ns))
       << std::setw(12) << std::setprecision(1)
       << (cycles == 0 ? 0.0
                       : static_cast<double>(ns) / static_cast<double>(cycles))
       << '\n';
  };
  for (usize s = 0; s < kProfileStageCount; ++s) {
    const auto stage = static_cast<ProfileStage>(s);
    row(profile_stage_name(stage), prof->stage_ns(stage));
  }
  row("total", total_ns);
  os << "staged cycles: " << prof->staged_cycles()
     << "   fast cycles: " << prof->fast_cycles()
     << "   skip spans: " << prof->skip_spans() << '\n';

  os << '\n' << "Per-device shard time (ms)\n";
  os << std::left << std::setw(6) << "Dev" << std::right << std::setw(14)
     << "stage1_xbar" << std::setw(14) << "stage2_xbar" << std::setw(14)
     << "vaults(sum)" << std::setw(16) << "hottest vault" << '\n';
  for (u32 d = 0; d < prof->num_devices(); ++d) {
    u64 vault_sum = 0, hot_ns = 0;
    u32 hot_vault = 0;
    for (u32 v = 0; v < prof->vaults_per_device(); ++v) {
      const u64 ns = prof->vault_ns(d, v);
      vault_sum += ns;
      if (ns > hot_ns) {
        hot_ns = ns;
        hot_vault = v;
      }
    }
    os << std::left << std::setw(6) << d << std::right << std::setw(14)
       << std::fixed << std::setprecision(3)
       << static_cast<double>(prof->device_ns(ProfileStage::Stage1Xbar, d)) /
              1e6
       << std::setw(14)
       << static_cast<double>(
              prof->device_ns(ProfileStage::Stage2RootXbar, d)) /
              1e6
       << std::setw(14) << static_cast<double>(vault_sum) / 1e6
       << std::setw(10) << static_cast<double>(hot_ns) / 1e6 << " (v"
       << hot_vault << ")\n";
  }
  return os.str();
}

std::string format_telemetry_table(const Simulator& sim) {
  const Telemetry* tel = sim.telemetry();
  if (tel == nullptr || tel->rows().empty()) return {};
  std::ostringstream os;
  os << "Occupancy Telemetry (" << tel->rows().size()
     << " sample passes)\n";
  os << std::left << std::setw(20) << "Track" << std::right << std::setw(6)
     << "Dev" << std::setw(12) << "HighWater" << std::setw(12) << "Mean"
     << std::setw(12) << "Samples" << '\n';
  const auto row = [&](std::string_view label, std::string_view dev,
                       const OccupancyTrack& t) {
    os << std::left << std::setw(20) << label << std::right << std::setw(6)
       << dev << std::setw(12) << t.high_water << std::setw(12) << std::fixed
       << std::setprecision(2) << t.mean() << std::setw(12) << t.samples
       << '\n';
  };
  for (u32 d = 0; d < tel->num_devices(); ++d) {
    const std::string dev = std::to_string(d);
    for (usize t = 0; t < kTelemetryTrackCount; ++t) {
      const auto track = static_cast<TelemetryTrack>(t);
      row(telemetry_track_name(track), dev, tel->track(track, d));
    }
  }
  row("host_tags", "-", tel->host_tags());
  return os.str();
}

double effective_bandwidth_gbs(u64 bytes, Cycle cycles, double clock_ghz) {
  if (cycles == 0) return 0.0;
  return static_cast<double>(bytes) / static_cast<double>(cycles) * clock_ghz;
}

double link_flits_per_cycle(u32 lanes, double gbps, double clock_ghz) {
  // lanes * gbps Gbit/s  /  (clock_ghz GHz * 128 bit/FLIT)
  return static_cast<double>(lanes) * gbps / (clock_ghz * 128.0);
}

double vault_load_fairness(const Simulator& sim) {
  if (!sim.initialized()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  usize n = 0;
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    for (const VaultState& vault : sim.device(d).vaults) {
      const double load = static_cast<double>(vault.rqst.stats().total_pops);
      sum += load;
      sum_sq += load * load;
      ++n;
    }
  }
  if (sum == 0.0 || n == 0) return 0.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

std::vector<LinkUtilization> link_utilization(const Simulator& sim) {
  std::vector<LinkUtilization> result;
  if (!sim.initialized() || sim.now() == 0) return result;
  const double budget =
      static_cast<double>(sim.config().device.xbar_flits_per_cycle) *
      static_cast<double>(sim.now());
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    const Device& dev = sim.device(d);
    for (u32 l = 0; l < sim.config().device.num_links; ++l) {
      LinkUtilization u;
      u.dev = d;
      u.link = l;
      u.rqst_flits = dev.links[l].rqst_flits_forwarded;
      u.rsp_flits = dev.links[l].rsp_flits_forwarded;
      u.rqst_util = static_cast<double>(u.rqst_flits) / budget;
      u.rsp_util = static_cast<double>(u.rsp_flits) / budget;
      result.push_back(u);
    }
  }
  return result;
}

}  // namespace hmcsim
