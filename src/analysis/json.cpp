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

JsonWriter& JsonWriter::value(i64 v) {
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
  json.kv("reads", s.reads);
  json.kv("writes", s.writes);
  json.kv("atomics", s.atomics);
  json.kv("mode_ops", s.mode_ops);
  json.kv("custom_ops", s.custom_ops);
  json.kv("bytes_read", s.bytes_read);
  json.kv("bytes_written", s.bytes_written);
  json.kv("responses", s.responses);
  json.kv("error_responses", s.error_responses);
  json.kv("bank_conflicts", s.bank_conflicts);
  json.kv("xbar_rqst_stalls", s.xbar_rqst_stalls);
  json.kv("xbar_rsp_stalls", s.xbar_rsp_stalls);
  json.kv("vault_rsp_stalls", s.vault_rsp_stalls);
  json.kv("latency_penalties", s.latency_penalties);
  json.kv("route_hops", s.route_hops);
  json.kv("misroutes", s.misroutes);
  json.kv("link_errors", s.link_errors);
  json.kv("link_retries", s.link_retries);
  json.kv("refreshes", s.refreshes);
  json.kv("row_hits", s.row_hits);
  json.kv("row_misses", s.row_misses);
  json.kv("sends", s.sends);
  json.kv("send_stalls", s.send_stalls);
  json.kv("recvs", s.recvs);
  json.kv("flow_packets", s.flow_packets);
  json.kv("dram_sbes", s.dram_sbes);
  json.kv("dram_dbes", s.dram_dbes);
  json.kv("scrub_steps", s.scrub_steps);
  json.kv("scrub_corrections", s.scrub_corrections);
  json.kv("scrub_uncorrectables", s.scrub_uncorrectables);
  json.kv("vault_failures", s.vault_failures);
  json.kv("vault_remaps", s.vault_remaps);
  json.kv("degraded_drops", s.degraded_drops);
  json.kv("link_crc_errors", s.link_crc_errors);
  json.kv("link_seq_errors", s.link_seq_errors);
  json.kv("link_abort_entries", s.link_abort_entries);
  json.kv("link_irtry_tx", s.link_irtry_tx);
  json.kv("link_irtry_rx", s.link_irtry_rx);
  json.kv("link_pret_tx", s.link_pret_tx);
  json.kv("link_tret_tx", s.link_tret_tx);
  json.kv("link_replayed_flits", s.link_replayed_flits);
  json.kv("link_token_stalls", s.link_token_stalls);
  json.kv("link_retrain_cycles", s.link_retrain_cycles);
  json.kv("link_failures", s.link_failures);
  json.kv("link_tokens_debited", s.link_tokens_debited);
  json.kv("link_tokens_returned", s.link_tokens_returned);
  json.kv("pcm_write_throttle_stalls", s.pcm_write_throttle_stalls);
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

void write_samples(JsonWriter& json, const MetricsSampler& sampler) {
  json.key("samples").begin_object();
  json.kv("interval", sampler.interval());
  json.key("data").begin_array();
  for (const MetricsSampler::Sample& s : sampler.samples()) {
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
  json.kv("sample_passes", tel.sample_passes());
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

std::string_view map_mode_name(AddrMapMode mode) {
  switch (mode) {
    case AddrMapMode::LowInterleave: return "low_interleave";
    case AddrMapMode::BankFirst: return "bank_first";
    case AddrMapMode::Linear: return "linear";
  }
  return "unknown";
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
    json.kv("num_links", u64{dc.num_links});
    json.kv("num_vaults", u64{dc.num_vaults()});
    json.kv("banks_per_vault", u64{dc.banks_per_vault});
    json.kv("capacity_bytes", dc.derived_capacity());
    json.kv("xbar_depth", u64{dc.xbar_depth});
    json.kv("vault_depth", u64{dc.vault_depth});
    json.kv("max_block_bytes", dc.max_block_bytes);
    json.kv("map_mode", map_mode_name(dc.map_mode));
    json.kv("bank_busy_cycles", u64{dc.bank_busy_cycles});
    json.kv("xbar_flits_per_cycle", u64{dc.xbar_flits_per_cycle});
    json.kv("vault_schedule",
            dc.vault_schedule == VaultSchedule::BankReady ? "bank_ready"
                                                          : "strict_fifo");
    json.kv("link_error_rate_ppm", u64{dc.link_error_rate_ppm});
    json.kv("model_data", dc.model_data);
    json.kv("dram_sbe_rate_ppm", u64{dc.dram_sbe_rate_ppm});
    json.kv("dram_dbe_rate_ppm", u64{dc.dram_dbe_rate_ppm});
    json.kv("scrub_interval_cycles", u64{dc.scrub_interval_cycles});
    json.kv("scrub_window_bytes", dc.scrub_window_bytes);
    json.kv("vault_fail_threshold", u64{dc.vault_fail_threshold});
    json.kv("failed_vault_mask", dc.failed_vault_mask);
    json.kv("vault_remap", dc.vault_remap);
    json.kv("watchdog_cycles", u64{dc.watchdog_cycles});
    json.kv("link_protocol", dc.link_protocol);
    json.kv("link_tokens", u64{dc.link_tokens});
    json.kv("link_retry_buffer_flits", u64{dc.link_retry_buffer_flits});
    json.kv("link_retry_latency", u64{dc.link_retry_latency});
    json.kv("link_error_burst_len", u64{dc.link_error_burst_len});
    json.kv("link_stuck_interval_cycles", u64{dc.link_stuck_interval_cycles});
    json.kv("link_stuck_window_cycles", u64{dc.link_stuck_window_cycles});
    json.kv("link_fail_threshold", u64{dc.link_fail_threshold});
    json.kv("fast_forward", dc.fast_forward);
    json.kv("self_profile", dc.self_profile);
    json.kv("telemetry_interval_cycles", u64{dc.telemetry_interval_cycles});
    json.kv("flight_recorder_depth", u64{dc.flight_recorder_depth});
    json.kv("chaos_invariants", u64{dc.chaos_invariants});
    json.kv("timing_backend", to_string(dc.timing_backend));
    json.key("vault_backends").begin_array();
    for (const auto& [vault, backend] : dc.vault_backends) {
      json.begin_object();
      json.kv("vault", u64{vault});
      json.kv("backend", to_string(backend));
      json.end_object();
    }
    json.end_array();
    json.kv("ddr_tcl", u64{dc.ddr_tcl});
    json.kv("ddr_trcd", u64{dc.ddr_trcd});
    json.kv("ddr_trp", u64{dc.ddr_trp});
    json.kv("ddr_tras", u64{dc.ddr_tras});
    json.kv("pcm_read_cycles", u64{dc.pcm_read_cycles});
    json.kv("pcm_write_cycles", u64{dc.pcm_write_cycles});
    json.kv("pcm_write_gap_cycles", u64{dc.pcm_write_gap_cycles});
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
    if (extras.sampler != nullptr) {
      write_samples(json, *extras.sampler);
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
