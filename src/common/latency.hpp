// Latency accounting shared by the host driver and the lifecycle
// observability layer.
//
// A LatencyStats is a fixed-footprint summary of a cycle-latency
// distribution: count/sum/min/max plus a log2-bucketed histogram from
// which approximate percentiles are interpolated.  The footprint is
// independent of the sample count, so one can be kept per (operation
// class, lifecycle segment) pair without memory concerns.
#pragma once

#include <algorithm>
#include <array>
#include <bit>

#include "common/types.hpp"

namespace hmcsim {

/// Aggregate request latency (e.g. send cycle -> response-drain cycle).
struct LatencyStats {
  u64 count{0};
  u64 sum{0};
  Cycle min{~Cycle{0}};
  Cycle max{0};
  /// log2-bucketed histogram: bucket i counts latencies in [2^i, 2^(i+1)).
  std::array<u64, 40> log2_buckets{};

  void add(Cycle latency) {
    ++count;
    sum += latency;
    min = std::min(min, latency);
    max = std::max(max, latency);
    const unsigned bucket =
        latency == 0 ? 0
                     : std::min<unsigned>(63 - static_cast<unsigned>(
                                                   std::countl_zero(latency)),
                                          log2_buckets.size() - 1);
    ++log2_buckets[bucket];
  }

  /// Fold another summary into this one (histograms are additive).
  void merge(const LatencyStats& other) {
    if (other.count == 0) return;
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    for (usize i = 0; i < log2_buckets.size(); ++i) {
      log2_buckets[i] += other.log2_buckets[i];
    }
  }

  /// Exact histogram equality (count/sum/extremes/buckets), used by the
  /// differential test harness to prove latency attribution is independent
  /// of the execution strategy (fast-forward, observability).
  bool operator==(const LatencyStats&) const = default;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) /
                                  static_cast<double>(count);
  }

  /// Approximate percentile (p in [0,1]) from the log2 histogram: locate
  /// the bucket holding the target rank and interpolate linearly inside
  /// it.  Exact for p=0/p=1 (min/max); within a factor of 2 elsewhere.
  [[nodiscard]] Cycle percentile(double p) const {
    if (count == 0) return 0;
    if (p <= 0.0) return min;
    if (p >= 1.0) return max;
    const double rank = p * static_cast<double>(count);
    double seen = 0;
    for (usize bucket = 0; bucket < log2_buckets.size(); ++bucket) {
      const double in_bucket = static_cast<double>(log2_buckets[bucket]);
      if (seen + in_bucket < rank) {
        seen += in_bucket;
        continue;
      }
      // Interpolate within [2^bucket, 2^(bucket+1)), clamped to the
      // observed extremes so p-values near 0/1 stay inside [min, max].
      const double lo =
          bucket == 0 ? 0.0 : static_cast<double>(Cycle{1} << bucket);
      const double hi = static_cast<double>(Cycle{1} << (bucket + 1));
      const double frac = in_bucket == 0.0 ? 0.0 : (rank - seen) / in_bucket;
      const double value = lo + frac * (hi - lo);
      const double clamped = std::min(
          static_cast<double>(max),
          std::max(static_cast<double>(min), value));
      return static_cast<Cycle>(clamped);
    }
    return max;
  }
};

}  // namespace hmcsim
