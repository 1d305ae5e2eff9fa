// Occupancy telemetry: the one queue sampler.  Every DeviceConfig::
// telemetry_interval_cycles clocks, at the stage-6 dispatch point, the
// simulator reads each link and vault queue once and feeds two views:
//
//   * high-water marks and log2 occupancy histograms for the structures
//     whose fill levels explain throughput — vault queues, crossbar slots,
//     link token pools and link retry buffers — plus the host tag table,
//     which the host driver feeds on the same cadence;
//   * one row per pass: those queues summed across every device, plus the
//     cumulative stall/conflict counters, so deltas between adjacent rows
//     localize *when* contention happened, which end-of-run totals cannot.
//
// Sampling is pure observation — reads of queue sizes folded into counters
// — so runs with telemetry on are bit-identical to runs with it off.  (The
// fast-forward engine bounds its skip at the next sample cycle, so the
// cadence survives skipping; this shortens skip *spans* but never changes
// simulated state.)
//
// Histograms use power-of-two buckets of the sampled value: bucket 0 holds
// zero samples, bucket i>=1 holds values in [2^(i-1), 2^i).  That spans
// 0..65535 in 17 buckets — deep enough for every queue the simulator owns
// — and makes "mostly empty, occasionally slammed" distributions legible
// at a glance.
#pragma once

#include <iosfwd>
#include <vector>

#include "common/types.hpp"

namespace hmcsim {

inline constexpr usize kOccupancyBuckets = 17;

/// Running occupancy aggregate for one structure (or one per-device
/// aggregation of homogeneous structures — e.g. all vault request queues of
/// a cube sample into one track).
struct OccupancyTrack {
  u64 high_water{0};
  u64 samples{0};
  u64 sum{0};
  u64 buckets[kOccupancyBuckets]{};

  void sample(u64 value) {
    if (value > high_water) high_water = value;
    ++samples;
    sum += value;
    usize b = 0;
    while (value != 0) {
      ++b;
      value >>= 1;
    }
    if (b >= kOccupancyBuckets) b = kOccupancyBuckets - 1;
    ++buckets[b];
  }

  [[nodiscard]] double mean() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(samples);
  }
};

/// Per-device track families the simulator feeds.
enum class TelemetryTrack : u8 {
  VaultRqst,     ///< vault request-queue occupancy (per vault sample)
  VaultRsp,      ///< vault response-queue occupancy (per vault sample)
  XbarRqst,      ///< crossbar request-queue occupancy (per link sample)
  XbarRsp,       ///< crossbar response-queue occupancy (per link sample)
  LinkTokens,    ///< link token-pool *deficit* in FLITs (per link sample)
  LinkRetryBuf,  ///< link retry-buffer fill in FLITs (per link sample)
};

inline constexpr usize kTelemetryTrackCount = 6;

[[nodiscard]] const char* telemetry_track_name(TelemetryTrack track);

/// One sampling pass, machine-wide: queued entries summed across every
/// device, and the cumulative counters at the sample cycle (monotone; diff
/// adjacent rows for per-interval rates).
struct TelemetryRow {
  Cycle cycle{0};
  u64 link_rqst{0};   ///< link (crossbar) request queues
  u64 link_rsp{0};    ///< link (crossbar) response queues
  u64 vault_rqst{0};  ///< vault controller request queues
  u64 vault_rsp{0};   ///< vault controller response queues
  u64 mode_rsp{0};    ///< register-access response staging queues
  u64 bank_conflicts{0};
  u64 xbar_rqst_stalls{0};
  u64 xbar_rsp_stalls{0};
  u64 vault_rsp_stalls{0};
  u64 send_stalls{0};

  bool operator==(const TelemetryRow&) const = default;
};

class Telemetry {
 public:
  explicit Telemetry(u32 num_devices);

  [[nodiscard]] u32 num_devices() const {
    return static_cast<u32>(tracks_[0].size());
  }

  void sample(TelemetryTrack track, u32 dev, u64 value) {
    tracks_[static_cast<usize>(track)][dev].sample(value);
  }
  /// Host-side tag-table occupancy (outstanding tags across all ports);
  /// fed by HostDriver once per drive-loop iteration.
  void sample_host_tags(u64 outstanding) { host_tags_.sample(outstanding); }

  [[nodiscard]] const OccupancyTrack& track(TelemetryTrack track,
                                            u32 dev) const {
    return tracks_[static_cast<usize>(track)][dev];
  }
  [[nodiscard]] const OccupancyTrack& host_tags() const { return host_tags_; }

  /// Close a sampling pass with its machine-wide row.
  void add_row(const TelemetryRow& row) { rows_.push_back(row); }
  /// One row per sampling pass taken, oldest first.
  [[nodiscard]] const std::vector<TelemetryRow>& rows() const {
    return rows_;
  }

  /// CSV with a header row:
  /// cycle,link_rqst,link_rsp,vault_rqst,vault_rsp,mode_rsp,
  /// bank_conflicts,xbar_rqst_stalls,xbar_rsp_stalls,vault_rsp_stalls,
  /// send_stalls
  void write_csv(std::ostream& os) const;

  void reset();

 private:
  std::vector<OccupancyTrack> tracks_[kTelemetryTrackCount];
  OccupancyTrack host_tags_;
  std::vector<TelemetryRow> rows_;
};

}  // namespace hmcsim
