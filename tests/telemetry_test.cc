// Tests for the telemetry data type: sampling rate and timeliness as
// fidelity dimensions (§2.2) and the background information filter (§2.3).

#include <gtest/gtest.h>

#include "src/apps/filter_app.h"
#include "src/apps/video_player.h"
#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/servers/telemetry_server.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

// --- Server ---

TEST(TelemetryServerTest, FeedsProduceAtNativeRate) {
  Simulation sim(1);
  TelemetryServer server(&sim);
  server.CreateFeed("f", 100 * kMillisecond, 50.0, 0.5);
  sim.RunUntil(10 * kSecond);
  std::vector<TelemetrySample> samples;
  ASSERT_TRUE(server.Latest("f", 1000, &samples).ok());
  // One initial sample plus one per period.
  EXPECT_NEAR(static_cast<double>(samples.size()), 101.0, 2.0);
  // Newest last, timestamps non-decreasing.
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].produced_at, samples[i - 1].produced_at);
  }
}

TEST(TelemetryServerTest, InjectedEventShowsInNextSample) {
  Simulation sim(2);
  TelemetryServer server(&sim);
  server.CreateFeed("f", 100 * kMillisecond, 0.0, 0.0);  // no noise
  sim.RunUntil(kSecond);
  ASSERT_TRUE(server.InjectEvent("f", 42.0).ok());
  sim.RunUntil(2 * kSecond);
  std::vector<TelemetrySample> samples;
  ASSERT_TRUE(server.Latest("f", 1, &samples).ok());
  EXPECT_NEAR(samples.back().value, 42.0, 1e-9);
}

TEST(TelemetryServerTest, ErrorsOnUnknownFeed) {
  Simulation sim(3);
  TelemetryServer server(&sim);
  std::vector<TelemetrySample> samples;
  EXPECT_EQ(server.Latest("nope", 1, &samples).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.InjectEvent("nope", 1.0).code(), StatusCode::kNotFound);
  Duration period = 0;
  EXPECT_EQ(server.NativePeriod("nope", &period).code(), StatusCode::kNotFound);
  server.CreateFeed("f", kSecond, 0.0, 0.0);
  EXPECT_EQ(server.Latest("f", 0, &samples).code(), StatusCode::kInvalidArgument);
}

// --- Warden ---

class TelemetryWardenTest : public ::testing::Test {
 protected:
  TelemetryWardenTest() : rig_(1, "odyssey"), server_(&rig_.sim()) {
    server_.CreateFeed("stocks/ACME", 100 * kMillisecond, 100.0, 0.2);
    warden_ = static_cast<TelemetryWarden*>(
        rig_.client().InstallWarden(std::make_unique<TelemetryWarden>(&server_)));
    app_ = rig_.client().RegisterApplication("monitor");
    rig_.Replay(MakeConstant(kHighBandwidth, 30 * kMinute), /*prime=*/false);
  }

  std::string Path() { return std::string(kOdysseyRoot) + "telemetry/stocks/ACME"; }

  void Subscribe(int fixed_level) {
    rig_.client().Tsop(app_, Path(), kTelemetrySubscribe,
                       PackStruct(TelemetrySubscribeRequest{fixed_level}),
                       [](Status, std::string) {});
  }

  TelemetryStats Stats() {
    TelemetryStats stats;
    rig_.client().Tsop(app_, Path(), kTelemetryStats, "",
                       [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &stats)); });
    return stats;
  }

  ExperimentRig rig_;
  TelemetryServer server_;
  TelemetryWarden* warden_ = nullptr;
  AppId app_ = 0;
};

TEST_F(TelemetryWardenTest, LiveLevelDeliversEverySample) {
  Subscribe(0);
  rig_.sim().RunUntil(20 * kSecond);
  const TelemetryStats stats = Stats();
  // Close to the native 10 samples/second for ~20 s (the poll pipeline
  // serializes fetches, so delivery runs slightly under the native rate).
  EXPECT_GT(stats.samples_delivered, 120);
  EXPECT_LT(stats.mean_staleness_ms, 300.0);
}

TEST_F(TelemetryWardenTest, DigestLevelThinsAndBatches) {
  Subscribe(2);
  rig_.sim().RunUntil(20 * kSecond);
  const TelemetryStats stats = Stats();
  // One of 16 native samples, delivered in batches of 4: far fewer
  // deliveries, far higher staleness.
  EXPECT_LT(stats.samples_delivered, 20);
  EXPECT_GT(stats.mean_staleness_ms, 1000.0);
  EXPECT_LT(stats.polls, 10);
}

TEST_F(TelemetryWardenTest, SampleCallbackReceivesData) {
  int seen = 0;
  warden_->SetSampleCallback(app_, [&](const std::string& feed, const TelemetrySample&) {
    EXPECT_EQ(feed, "stocks/ACME");
    ++seen;
  });
  Subscribe(0);
  rig_.sim().RunUntil(5 * kSecond);
  EXPECT_GT(seen, 20);
}

TEST_F(TelemetryWardenTest, SamplesAreMonotoneAndUnique) {
  Time last = -1;
  warden_->SetSampleCallback(app_, [&](const std::string&, const TelemetrySample& sample) {
    EXPECT_GT(sample.produced_at, last);
    last = sample.produced_at;
  });
  Subscribe(0);
  rig_.sim().RunUntil(10 * kSecond);
}

TEST_F(TelemetryWardenTest, AdaptiveLevelFollowsBandwidth) {
  EXPECT_EQ(TelemetryWarden::AdaptiveLevel(kHighBandwidth), 0);
  EXPECT_EQ(TelemetryWarden::AdaptiveLevel(10.0 * kKb), 1);
  EXPECT_EQ(TelemetryWarden::AdaptiveLevel(1.0 * kKb), 2);
}

TEST_F(TelemetryWardenTest, UnsubscribeStopsDeliveries) {
  Subscribe(0);
  rig_.sim().RunUntil(5 * kSecond);
  TelemetryStats final_stats;
  rig_.client().Tsop(app_, Path(), kTelemetryUnsubscribe, "",
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &final_stats)); });
  const int at_stop = final_stats.samples_delivered;
  rig_.sim().RunUntil(15 * kSecond);
  // No subscription -> stats are frozen (a fresh query still sees them).
  EXPECT_EQ(Stats().samples_delivered, at_stop);
}

TEST_F(TelemetryWardenTest, BadRequestsRejected) {
  Status status;
  rig_.client().Tsop(app_, std::string(kOdysseyRoot) + "telemetry/no/such/feed",
                     kTelemetrySubscribe, PackStruct(TelemetrySubscribeRequest{0}),
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  rig_.client().Tsop(app_, Path(), kTelemetrySetLevel, PackStruct(TelemetrySetLevelRequest{7}),
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  rig_.client().Tsop(app_, Path(), kTelemetryStats, "",
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);  // never subscribed
}

// --- The background filter application ---

class FilterAppTest : public ::testing::Test {
 protected:
  FilterAppTest() : rig_(1, "odyssey"), server_(&rig_.sim()) {
    server_.CreateFeed("stocks/ACME", 100 * kMillisecond, 100.0, 0.05);
    warden_ = static_cast<TelemetryWarden*>(
        rig_.client().InstallWarden(std::make_unique<TelemetryWarden>(&server_)));
  }

  ExperimentRig rig_;
  TelemetryServer server_;
  TelemetryWarden* warden_ = nullptr;
};

TEST_F(FilterAppTest, AlertsOnInjectedEvent) {
  FilterApp filter(&rig_.client(), warden_, FilterAppOptions{"stocks/ACME", 5.0, 0});
  rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  filter.Start();
  rig_.sim().RunUntil(10 * kSecond);
  EXPECT_TRUE(filter.alerts().empty());  // quiet market, no alerts
  ASSERT_TRUE(server_.InjectEvent("stocks/ACME", 25.0).ok());
  rig_.sim().RunUntil(15 * kSecond);
  ASSERT_EQ(filter.alerts().size(), 1u);
  // At the live level, detection lags production by well under a second.
  EXPECT_LT(filter.alerts()[0].detection_lag(), kSecond);
}

TEST_F(FilterAppTest, DigestLevelDetectsLater) {
  FilterApp live(&rig_.client(), warden_, FilterAppOptions{"stocks/ACME", 5.0, 0});
  rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  live.Start();
  rig_.sim().RunUntil(10 * kSecond);
  ASSERT_TRUE(server_.InjectEvent("stocks/ACME", 25.0).ok());
  rig_.sim().RunUntil(30 * kSecond);
  ASSERT_FALSE(live.alerts().empty());
  const Duration live_lag = live.alerts()[0].detection_lag();

  // Same scenario at the digest level, in a fresh world.
  ExperimentRig rig2(1, "odyssey");
  TelemetryServer server2(&rig2.sim());
  server2.CreateFeed("stocks/ACME", 100 * kMillisecond, 100.0, 0.05);
  auto* warden2 = static_cast<TelemetryWarden*>(
      rig2.client().InstallWarden(std::make_unique<TelemetryWarden>(&server2)));
  FilterApp digest(&rig2.client(), warden2, FilterAppOptions{"stocks/ACME", 5.0, 2});
  rig2.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  digest.Start();
  rig2.sim().RunUntil(10 * kSecond);
  ASSERT_TRUE(server2.InjectEvent("stocks/ACME", 25.0).ok());
  rig2.sim().RunUntil(40 * kSecond);
  ASSERT_FALSE(digest.alerts().empty());
  EXPECT_GT(digest.alerts()[0].detection_lag(), 2 * live_lag);
}

TEST_F(FilterAppTest, StopFreezesStats) {
  FilterApp filter(&rig_.client(), warden_, FilterAppOptions{"stocks/ACME", 5.0, 0});
  rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  filter.Start();
  rig_.sim().RunUntil(5 * kSecond);
  filter.Stop();
  EXPECT_GT(filter.final_stats().samples_delivered, 0);
  const int seen = filter.samples_seen();
  rig_.sim().RunUntil(15 * kSecond);
  EXPECT_EQ(filter.samples_seen(), seen);
}

TEST_F(FilterAppTest, BackgroundFilterCoexistsWithForegroundVideo) {
  // §2.3's point: the background monitor and a foreground application run
  // concurrently under centralized management without starving each other.
  FilterApp filter(&rig_.client(), warden_, FilterAppOptions{"stocks/ACME", 5.0, -1});
  VideoPlayerOptions video_options;
  video_options.frames_to_play = 500;
  VideoPlayer video(&rig_.client(), video_options);
  rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  filter.Start();
  video.Start();
  rig_.sim().RunUntil(kMinute);
  ASSERT_TRUE(server_.InjectEvent("stocks/ACME", 25.0).ok());
  rig_.sim().RunUntil(2 * kMinute);
  // The video played nearly drop-free and the filter still caught the event.
  EXPECT_LE(video.DropsBetween(0, kMinute), 45);
  EXPECT_FALSE(filter.alerts().empty());
}

}  // namespace
}  // namespace odyssey
