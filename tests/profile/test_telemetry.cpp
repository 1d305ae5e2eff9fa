// Occupancy-telemetry unit tests: the log2 histogram buckets, high-water /
// mean aggregation, and the per-device track families.
#include <gtest/gtest.h>

#include "profile/telemetry.hpp"

namespace hmcsim {
namespace {

TEST(OccupancyTrack, BucketBoundariesAreLog2) {
  OccupancyTrack t;
  t.sample(0);  // bucket 0: exactly zero
  t.sample(1);  // bucket 1: [1, 2)
  t.sample(2);  // bucket 2: [2, 4)
  t.sample(3);
  t.sample(4);  // bucket 3: [4, 8)
  t.sample(7);
  t.sample(8);  // bucket 4: [8, 16)
  EXPECT_EQ(t.buckets[0], 1u);
  EXPECT_EQ(t.buckets[1], 1u);
  EXPECT_EQ(t.buckets[2], 2u);
  EXPECT_EQ(t.buckets[3], 2u);
  EXPECT_EQ(t.buckets[4], 1u);
  EXPECT_EQ(t.samples, 7u);
}

TEST(OccupancyTrack, HugeValuesClampToLastBucket) {
  OccupancyTrack t;
  t.sample(u64{1} << 40);
  t.sample(~u64{0});
  EXPECT_EQ(t.buckets[kOccupancyBuckets - 1], 2u);
}

TEST(OccupancyTrack, HighWaterAndMean) {
  OccupancyTrack t;
  EXPECT_EQ(t.mean(), 0.0);  // no samples yet
  t.sample(2);
  t.sample(10);
  t.sample(3);
  EXPECT_EQ(t.high_water, 10u);
  EXPECT_DOUBLE_EQ(t.mean(), 5.0);
}

TEST(Telemetry, TracksArePerDeviceAndPerFamily) {
  Telemetry tel(2);
  tel.sample(TelemetryTrack::VaultRqst, 0, 4);
  tel.sample(TelemetryTrack::VaultRqst, 1, 9);
  tel.sample(TelemetryTrack::LinkTokens, 1, 2);
  EXPECT_EQ(tel.track(TelemetryTrack::VaultRqst, 0).high_water, 4u);
  EXPECT_EQ(tel.track(TelemetryTrack::VaultRqst, 1).high_water, 9u);
  EXPECT_EQ(tel.track(TelemetryTrack::LinkTokens, 1).high_water, 2u);
  EXPECT_EQ(tel.track(TelemetryTrack::LinkTokens, 0).samples, 0u);
  EXPECT_EQ(tel.num_devices(), 2u);
}

TEST(Telemetry, HostTagsAndSamplePasses) {
  Telemetry tel(1);
  tel.sample_host_tags(100);
  tel.sample_host_tags(50);
  TelemetryRow row;
  row.cycle = 64;
  tel.add_row(row);
  EXPECT_EQ(tel.host_tags().high_water, 100u);
  EXPECT_EQ(tel.host_tags().samples, 2u);
  ASSERT_EQ(tel.rows().size(), 1u);
  EXPECT_EQ(tel.rows()[0].cycle, 64u);
}

TEST(Telemetry, ResetZeroesAllTracks) {
  Telemetry tel(1);
  tel.sample(TelemetryTrack::XbarRsp, 0, 7);
  tel.sample_host_tags(3);
  tel.add_row(TelemetryRow{});
  tel.reset();
  EXPECT_EQ(tel.track(TelemetryTrack::XbarRsp, 0).samples, 0u);
  EXPECT_EQ(tel.host_tags().samples, 0u);
  EXPECT_TRUE(tel.rows().empty());
}

TEST(Telemetry, TrackNamesAreDistinctAndStable) {
  EXPECT_STREQ(telemetry_track_name(TelemetryTrack::VaultRqst), "vault_rqst");
  EXPECT_STREQ(telemetry_track_name(TelemetryTrack::LinkTokens),
               "link_token_deficit");
  for (usize a = 0; a < kTelemetryTrackCount; ++a) {
    for (usize b = a + 1; b < kTelemetryTrackCount; ++b) {
      EXPECT_STRNE(telemetry_track_name(static_cast<TelemetryTrack>(a)),
                   telemetry_track_name(static_cast<TelemetryTrack>(b)));
    }
  }
}

}  // namespace
}  // namespace hmcsim
