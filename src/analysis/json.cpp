#include "analysis/json.hpp"

#include <cmath>
#include <ostream>

#include "analysis/report.hpp"

namespace hmcsim {

void JsonWriter::separator() {
  if (need_comma_) *os_ << ',';
  need_comma_ = false;
}

void JsonWriter::escape(std::string_view text) {
  *os_ << '"';
  for (const char c : text) {
    switch (c) {
      case '"': *os_ << "\\\""; break;
      case '\\': *os_ << "\\\\"; break;
      case '\n': *os_ << "\\n"; break;
      case '\t': *os_ << "\\t"; break;
      case '\r': *os_ << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *os_ << buf;
        } else {
          *os_ << c;
        }
    }
  }
  *os_ << '"';
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  *os_ << '{';
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  *os_ << '}';
  --depth_;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  *os_ << '[';
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  *os_ << ']';
  --depth_;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separator();
  escape(name);
  *os_ << ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(u64 v) {
  separator();
  *os_ << v;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separator();
  if (std::isfinite(v)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    *os_ << buf;
  } else {
    *os_ << "null";  // JSON has no NaN/Inf
  }
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  *os_ << (v ? "true" : "false");
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separator();
  escape(v);
  need_comma_ = true;
  return *this;
}

namespace {

void write_device_stats(JsonWriter& json, const DeviceStats& s) {
  json.begin_object();
  for (const StatField& f : kStatFields) json.kv(f.name, s.*f.member);
  json.end_object();
}

void write_device_ras(JsonWriter& json, const Device& dev) {
  json.begin_object();
  json.kv("failed_vaults", dev.ras.failed_vaults);
  json.kv("scrub_cursor", dev.ras.scrub_cursor);
  json.kv("scrub_passes", dev.ras.scrub_passes);
  json.kv("last_error_addr", dev.ras.last_error_addr);
  json.kv("last_error_stat", u64{dev.ras.last_error_stat});
  json.kv("pending_faults", dev.store.fault_count());
  json.end_object();
}

void write_latency_stats(JsonWriter& json, const LatencyStats& s) {
  json.begin_object();
  json.kv("count", s.count);
  json.kv("mean", s.mean());
  json.kv("min", s.count == 0 ? u64{0} : s.min);
  json.kv("max", s.max);
  json.kv("p50", s.percentile(0.50));
  json.kv("p95", s.percentile(0.95));
  json.kv("p99", s.percentile(0.99));
  json.end_object();
}

void write_latency_breakdown(JsonWriter& json, const LifecycleSink& sink) {
  json.key("latency_breakdown").begin_object();
  json.kv("completed", sink.completed());
  json.kv("conflicted", sink.conflicted());
  json.key("classes").begin_object();
  for (usize c = 0; c < kOpClassCount; ++c) {
    const auto cls = static_cast<OpClass>(c);
    json.key(to_string(cls)).begin_object();
    for (usize seg = 0; seg < kLifecycleSegmentCount; ++seg) {
      const auto segment = static_cast<LifecycleSegment>(seg);
      json.key(to_string(segment));
      write_latency_stats(json, sink.stats(cls, segment));
    }
    json.end_object();
  }
  json.end_object();
  json.key("merged").begin_object();
  for (usize seg = 0; seg < kLifecycleSegmentCount; ++seg) {
    const auto segment = static_cast<LifecycleSegment>(seg);
    json.key(to_string(segment));
    write_latency_stats(json, sink.merged(segment));
  }
  json.end_object();
  json.end_object();
}

void write_samples(JsonWriter& json, Cycle interval, const Telemetry& tel) {
  json.key("samples").begin_object();
  json.kv("interval", interval);
  json.key("data").begin_array();
  for (const TelemetryRow& s : tel.rows()) {
    json.begin_object();
    json.kv("cycle", s.cycle);
    json.kv("link_rqst", s.link_rqst);
    json.kv("link_rsp", s.link_rsp);
    json.kv("vault_rqst", s.vault_rqst);
    json.kv("vault_rsp", s.vault_rsp);
    json.kv("mode_rsp", s.mode_rsp);
    json.kv("bank_conflicts", s.bank_conflicts);
    json.kv("xbar_rqst_stalls", s.xbar_rqst_stalls);
    json.kv("xbar_rsp_stalls", s.xbar_rsp_stalls);
    json.kv("vault_rsp_stalls", s.vault_rsp_stalls);
    json.kv("send_stalls", s.send_stalls);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_occupancy_track(JsonWriter& json, const OccupancyTrack& t) {
  json.begin_object();
  json.kv("high_water", t.high_water);
  json.kv("samples", t.samples);
  json.kv("mean", t.mean());
  json.key("buckets").begin_array();
  for (const u64 b : t.buckets) json.value(b);
  json.end_array();
  json.end_object();
}

void write_profile(JsonWriter& json, const StageProfiler& prof) {
  json.key("profile").begin_object();
  json.kv("staged_cycles", prof.staged_cycles());
  json.kv("fast_cycles", prof.fast_cycles());
  json.kv("skip_spans", prof.skip_spans());
  json.kv("total_ns", prof.total_ns());
  json.key("stages").begin_object();
  for (usize s = 0; s < kProfileStageCount; ++s) {
    const auto stage = static_cast<ProfileStage>(s);
    json.kv(profile_stage_name(stage), prof.stage_ns(stage));
  }
  json.end_object();
  json.key("devices").begin_array();
  for (u32 d = 0; d < prof.num_devices(); ++d) {
    json.begin_object();
    json.kv("stage1_xbar_ns", prof.device_ns(ProfileStage::Stage1Xbar, d));
    json.kv("stage2_root_xbar_ns",
            prof.device_ns(ProfileStage::Stage2RootXbar, d));
    json.key("vault_ns").begin_array();
    for (u32 v = 0; v < prof.vaults_per_device(); ++v) {
      json.value(prof.vault_ns(d, v));
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_telemetry(JsonWriter& json, const Telemetry& tel) {
  json.key("telemetry").begin_object();
  json.kv("sample_passes", u64{tel.rows().size()});
  json.key("host_tags");
  write_occupancy_track(json, tel.host_tags());
  json.key("devices").begin_array();
  for (u32 d = 0; d < tel.num_devices(); ++d) {
    json.begin_object();
    for (usize t = 0; t < kTelemetryTrackCount; ++t) {
      const auto track = static_cast<TelemetryTrack>(t);
      json.key(telemetry_track_name(track));
      write_occupancy_track(json, tel.track(track, d));
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_flight_recorder(JsonWriter& json, const FlightRecorder& rec) {
  // Summary only: full event dumps go to the text / Chrome-trace renders.
  json.key("flight_recorder").begin_object();
  json.kv("depth", u64{rec.depth()});
  json.key("devices").begin_array();
  for (u32 d = 0; d < rec.num_devices(); ++d) {
    json.begin_object();
    json.kv("recorded", rec.recorded(d));
    json.kv("retained", u64{rec.size(d)});
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

void write_stats_json(std::ostream& os, const Simulator& sim,
                      const PowerConfig& power, const ReportExtras& extras) {
  JsonWriter json(os);
  json.begin_object();
  json.kv("simulator", "hmcsim++");
  json.kv("cycle", sim.now());
  json.kv("cycles_skipped", sim.cycles_skipped());

  if (sim.initialized()) {
    const DeviceConfig& dc = sim.config().device;
    json.key("config").begin_object();
    json.kv("num_devices", u64{sim.num_devices()});
    json.kv("num_vaults", u64{dc.num_vaults()});
    json.kv("capacity_bytes", dc.derived_capacity());
    for (const ConfigField& f : kConfigFields) {
      if (!f.keyed()) continue;
      const u64 word = f.get(dc);
      json.key(f.key);
      switch (f.kind) {
        case FieldKind::Number: json.value(word); break;
        case FieldKind::Flag: json.value(word != 0); break;
        case FieldKind::Enum: json.value(f.name(word)); break;
      }
    }
    json.key("vault_backends").begin_array();
    for (const auto& [vault, backend] : dc.vault_backends) {
      json.begin_object();
      json.kv("vault", u64{vault});
      json.kv("backend", to_string(backend));
      json.end_object();
    }
    json.end_array();
    json.end_object();

    json.key("totals");
    write_device_stats(json, sim.total_stats());

    json.key("devices").begin_array();
    for (u32 d = 0; d < sim.num_devices(); ++d) {
      write_device_stats(json, sim.stats(d));
    }
    json.end_array();

    json.key("ras").begin_object();
    json.kv("watchdog_fired", sim.watchdog_fired());
    json.key("devices").begin_array();
    for (u32 d = 0; d < sim.num_devices(); ++d) {
      write_device_ras(json, sim.device(d));
    }
    json.end_array();
    json.end_object();

    json.key("links").begin_array();
    for (const LinkUtilization& u : link_utilization(sim)) {
      json.begin_object();
      json.kv("dev", u64{u.dev});
      json.kv("link", u64{u.link});
      json.kv("rqst_flits", u.rqst_flits);
      json.kv("rsp_flits", u.rsp_flits);
      json.kv("rqst_util", u.rqst_util);
      json.kv("rsp_util", u.rsp_util);
      json.end_object();
    }
    json.end_array();

    const PowerReport p = estimate_power(sim, power);
    json.key("power").begin_object();
    json.kv("dram_nj", p.dram_nj);
    json.kv("logic_nj", p.logic_nj);
    json.kv("link_nj", p.link_nj);
    json.kv("routing_nj", p.routing_nj);
    json.kv("static_nj", p.static_nj);
    json.kv("total_nj", p.total_nj);
    json.kv("average_w", p.average_w);
    json.kv("pj_per_byte", p.pj_per_byte);
    json.kv("elapsed_ns", p.elapsed_ns);
    json.end_object();

    if (extras.lifecycle != nullptr) {
      write_latency_breakdown(json, *extras.lifecycle);
    }
    if (sim.telemetry() != nullptr) {
      write_samples(json, dc.telemetry_interval_cycles, *sim.telemetry());
    }
    if (sim.profiler() != nullptr) write_profile(json, *sim.profiler());
    if (sim.telemetry() != nullptr) write_telemetry(json, *sim.telemetry());
    if (sim.flight_recorder() != nullptr) {
      write_flight_recorder(json, *sim.flight_recorder());
    }
    if (const ChaosEngine* chaos = sim.chaos()) {
      json.key("chaos").begin_object();
      json.kv("plan_events", u64{chaos->plan().events.size()});
      json.kv("cursor", chaos->cursor());
      json.kv("events_applied", chaos->events_applied());
      json.kv("invariant_checks", chaos->invariant_checks());
      json.kv("violated", chaos->violated());
      if (chaos->violated()) {
        json.kv("violation_invariant", chaos->violation().invariant);
        json.kv("violation_cycle", chaos->violation().cycle);
      }
      json.end_object();
    }
  }

  json.end_object();
  os << '\n';
}

}  // namespace hmcsim
