// Tests for the three adaptive applications and the bitstream consumer.

#include <gtest/gtest.h>

#include "src/apps/bitstream_app.h"
#include "src/apps/speech_frontend.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/metrics/experiment.h"
#include "src/strategies/centralized.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

// --- Video player ---

TEST(VideoPlayerTest, Jpeg99PlaysCleanlyAtHighBandwidth) {
  ExperimentRig rig(1, "odyssey");
  VideoPlayerOptions options;
  options.fixed_track = 0;
  options.frames_to_play = 300;
  VideoPlayer player(&rig.client(), options);
  rig.Replay(MakeConstant(kHighBandwidth, 2 * kMinute), /*prime=*/false);
  player.Start();
  rig.sim().RunUntil(40 * kSecond);
  ASSERT_TRUE(player.finished());
  EXPECT_EQ(player.outcomes().size(), 300u);
  // The high bandwidth is sufficient to fetch JPEG(99) frames (§6.2.2).
  EXPECT_LE(player.DropsBetween(0, 40 * kSecond), 6);
  EXPECT_NEAR(player.MeanFidelityBetween(0, 40 * kSecond), 1.0, 0.02);
}

TEST(VideoPlayerTest, Jpeg50PlaysCleanlyAtLowBandwidth) {
  ExperimentRig rig(1, "odyssey");
  VideoPlayerOptions options;
  options.fixed_track = 1;
  options.frames_to_play = 300;
  VideoPlayer player(&rig.client(), options);
  rig.Replay(MakeConstant(kLowBandwidth, 2 * kMinute), /*prime=*/false);
  player.Start();
  rig.sim().RunUntil(40 * kSecond);
  EXPECT_LE(player.DropsBetween(0, 40 * kSecond), 6);
  EXPECT_NEAR(player.MeanFidelityBetween(0, 40 * kSecond), 0.5, 0.02);
}

TEST(VideoPlayerTest, Jpeg99DropsHeavilyAtLowBandwidth) {
  ExperimentRig rig(1, "odyssey");
  VideoPlayerOptions options;
  options.fixed_track = 0;
  options.frames_to_play = 300;
  VideoPlayer player(&rig.client(), options);
  rig.Replay(MakeConstant(kLowBandwidth, 2 * kMinute), /*prime=*/false);
  player.Start();
  rig.sim().RunUntil(40 * kSecond);
  // 40/112 of frames can arrive; roughly two-thirds drop.
  EXPECT_GT(player.DropsBetween(0, 40 * kSecond), 150);
}

TEST(VideoPlayerTest, AdaptiveConvergesToJpeg99AtHighBandwidth) {
  ExperimentRig rig(2, "odyssey");
  VideoPlayerOptions options;
  options.frames_to_play = 300;
  VideoPlayer player(&rig.client(), options);
  rig.Replay(MakeConstant(kHighBandwidth, 2 * kMinute), /*prime=*/false);
  player.Start();
  rig.sim().RunUntil(40 * kSecond);
  EXPECT_EQ(player.current_track(), 0);
  // After the brief startup transient, fidelity is full.
  EXPECT_GT(player.MeanFidelityBetween(10 * kSecond, 40 * kSecond), 0.95);
}

TEST(VideoPlayerTest, AdaptiveDowngradesOnStepDown) {
  ExperimentRig rig(3, "odyssey");
  VideoPlayerOptions options;
  options.frames_to_play = 900;
  VideoPlayer player(&rig.client(), options);
  const Time measure = rig.Replay(MakeStepDown());  // 30 s priming at high
  player.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  // During the low half the player should sit on JPEG(50).
  EXPECT_EQ(player.current_track(), 1);
  EXPECT_GT(player.track_switches(), 0);
  const double late_fidelity =
      player.MeanFidelityBetween(measure + 40 * kSecond, measure + 60 * kSecond);
  EXPECT_NEAR(late_fidelity, 0.5, 0.05);
  // Much better than static JPEG(99) would do: only transition drops.
  EXPECT_LT(player.DropsBetween(measure, measure + kWaveformLength), 80);
}

TEST(VideoPlayerTest, AdaptiveUpgradesOnStepUp) {
  ExperimentRig rig(4, "odyssey");
  VideoPlayerOptions options;
  options.frames_to_play = 900;
  VideoPlayer player(&rig.client(), options);
  const Time measure = rig.Replay(MakeStepUp());
  player.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  EXPECT_EQ(player.current_track(), 0);
  const double late_fidelity =
      player.MeanFidelityBetween(measure + 40 * kSecond, measure + 60 * kSecond);
  EXPECT_GT(late_fidelity, 0.9);
}

TEST(VideoPlayerTest, AdaptiveStaysOnJpeg50ThroughImpulseUp) {
  // Paper: "For Impulse-Up, Odyssey shows only JPEG(50) frames" — the two
  // second excursion to high bandwidth is not worth chasing far.
  ExperimentRig rig(6, "odyssey");
  VideoPlayerOptions options;
  options.frames_to_play = 900;
  VideoPlayer player(&rig.client(), options);
  const Time measure = rig.Replay(MakeImpulseUp());
  player.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  const double fidelity = player.MeanFidelityBetween(measure, measure + kWaveformLength);
  EXPECT_NEAR(fidelity, 0.5, 0.1);
  // Far fewer drops than a static JPEG(99) would suffer on this waveform.
  EXPECT_LT(player.DropsBetween(measure, measure + kWaveformLength), 100);
}

TEST(VideoPlayerTest, AdaptiveNearFullFidelityThroughImpulseDown) {
  // Paper: "for Impulse-Down almost all JPEG(99) frames".
  ExperimentRig rig(7, "odyssey");
  VideoPlayerOptions options;
  options.frames_to_play = 900;
  VideoPlayer player(&rig.client(), options);
  const Time measure = rig.Replay(MakeImpulseDown());
  player.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  EXPECT_GT(player.MeanFidelityBetween(measure, measure + kWaveformLength), 0.9);
}

TEST(WebBrowserTest, ImpulseUpBrieflyFoolsTheBrowser) {
  // Paper: "In the Impulse-Up case, Odyssey is fooled into fetching better
  // quality images for a brief period by the impulse's transient increase
  // in bandwidth" — fidelity rises above JPEG(50)'s 0.5 but stays far from
  // full quality.
  ExperimentRig rig(6, "odyssey");
  WebBrowser browser(&rig.client(), WebBrowserOptions{});
  const Time measure = rig.Replay(MakeImpulseUp());
  browser.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  browser.Stop();
  const double fidelity = browser.MeanFidelityBetween(measure, measure + kWaveformLength);
  EXPECT_GT(fidelity, 0.45);
  EXPECT_LT(fidelity, 0.75);
}

TEST(SpeechFrontEndTest, RemoteStrategySlowerOnStepWaveforms) {
  // Paper Figure 12: always-remote pays ~0.1s more than hybrid on the Step
  // waveforms.
  ExperimentRig rig(6, "odyssey");
  SpeechFrontEndOptions options;
  options.mode = SpeechMode::kAlwaysRemote;
  SpeechFrontEnd remote(&rig.client(), options);
  const Time measure = rig.Replay(MakeStepUp());
  remote.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  remote.Stop();
  ExperimentRig rig2(6, "odyssey");
  SpeechFrontEndOptions hybrid_options;
  hybrid_options.mode = SpeechMode::kAlwaysHybrid;
  SpeechFrontEnd hybrid(&rig2.client(), hybrid_options);
  const Time measure2 = rig2.Replay(MakeStepUp());
  hybrid.Start();
  rig2.sim().RunUntil(measure2 + kWaveformLength);
  hybrid.Stop();
  EXPECT_GT(remote.MeanSecondsBetween(measure, measure + kWaveformLength),
            hybrid.MeanSecondsBetween(measure2, measure2 + kWaveformLength) + 0.05);
}

TEST(VideoPlayerTest, FidelityAveragesDisplayedFramesOnly) {
  ExperimentRig rig(5, "odyssey");
  VideoPlayerOptions options;
  options.fixed_track = 0;
  options.frames_to_play = 100;
  VideoPlayer player(&rig.client(), options);
  rig.Replay(MakeConstant(kLowBandwidth, kMinute), /*prime=*/false);
  player.Start();
  rig.sim().RunUntil(20 * kSecond);
  // Heavy drops, but every displayed frame is JPEG(99): fidelity stays 1.0.
  EXPECT_GT(player.DropsBetween(0, 20 * kSecond), 10);
  EXPECT_DOUBLE_EQ(player.MeanFidelityBetween(0, 20 * kSecond), 1.0);
}

// --- Web browser ---

TEST(WebBrowserTest, FullQualityMeetsGoalOnEthernet) {
  ExperimentRig rig(1, "odyssey");
  WebBrowserOptions options;
  options.fixed_level = 0;
  WebBrowser browser(&rig.client(), options);
  rig.Replay(MakeEthernetBaseline(kMinute), /*prime=*/false);
  browser.Start();
  rig.sim().RunUntil(30 * kSecond);
  browser.Stop();
  const double mean = browser.MeanSecondsBetween(0, 30 * kSecond);
  // The paper's Ethernet baseline: 0.20 s per fetch.
  EXPECT_NEAR(mean, 0.20, 0.03);
}

TEST(WebBrowserTest, FullQualityMissesGoalAtLowBandwidth) {
  ExperimentRig rig(2, "odyssey");
  WebBrowserOptions options;
  options.fixed_level = 0;
  WebBrowser browser(&rig.client(), options);
  rig.Replay(MakeConstant(kLowBandwidth, 2 * kMinute), /*prime=*/false);
  browser.Start();
  rig.sim().RunUntil(60 * kSecond);
  browser.Stop();
  EXPECT_GT(browser.MeanSecondsBetween(0, 60 * kSecond), DurationToSeconds(kWebGoal));
}

TEST(WebBrowserTest, AdaptiveMeetsGoalAtBothBandwidths) {
  for (const double bandwidth : {kHighBandwidth, kLowBandwidth}) {
    ExperimentRig rig(3, "odyssey");
    WebBrowser browser(&rig.client(), WebBrowserOptions{});
    const Time measure = rig.Replay(MakeConstant(bandwidth, 2 * kMinute));
    browser.Start();
    rig.sim().RunUntil(measure + kMinute);
    browser.Stop();
    EXPECT_LE(browser.MeanSecondsBetween(measure, measure + kMinute),
              DurationToSeconds(kWebGoal) * 1.05)
        << "bandwidth " << bandwidth;
  }
}

TEST(WebBrowserTest, AdaptivePicksFullQualityAtHighBandwidth) {
  ExperimentRig rig(4, "odyssey");
  WebBrowser browser(&rig.client(), WebBrowserOptions{});
  const Time measure = rig.Replay(MakeConstant(kHighBandwidth, 2 * kMinute));
  browser.Start();
  rig.sim().RunUntil(measure + kMinute);
  browser.Stop();
  EXPECT_GT(browser.MeanFidelityBetween(measure, measure + kMinute), 0.9);
}

TEST(WebBrowserTest, AdaptiveDegradesToJpeg50AtLowBandwidth) {
  // §6.2.2: "At low bandwidth JPEG(50) is the best possible."
  ExperimentRig rig(5, "odyssey");
  WebBrowser browser(&rig.client(), WebBrowserOptions{});
  const Time measure = rig.Replay(MakeConstant(kLowBandwidth, 2 * kMinute));
  browser.Start();
  rig.sim().RunUntil(measure + kMinute);
  browser.Stop();
  EXPECT_NEAR(browser.MeanFidelityBetween(measure, measure + kMinute), 0.5, 0.05);
}

TEST(WebBrowserTest, PredictTimeMonotoneInBandwidth) {
  WebSessionInfo info;
  info.level_bytes[0] = kWebImageBytes;
  info.level_bytes[1] = kWebJpeg50Bytes;
  const Duration slow = WebBrowser::PredictTime(info, 0, 10.0 * kKb, 21 * kMillisecond);
  const Duration fast = WebBrowser::PredictTime(info, 0, 1000.0 * kKb, 21 * kMillisecond);
  EXPECT_GT(slow, fast);
  EXPECT_EQ(WebBrowser::PredictTime(info, 0, 0.0, 0),
            std::numeric_limits<Duration>::max());
}

// --- Speech front end ---

TEST(SpeechFrontEndTest, HybridFasterThanRemoteAtLowBandwidth) {
  ExperimentRig rig(1, "odyssey");
  SpeechFrontEndOptions hybrid_options;
  hybrid_options.mode = SpeechMode::kAlwaysHybrid;
  SpeechFrontEnd hybrid(&rig.client(), hybrid_options);
  rig.Replay(MakeConstant(kLowBandwidth, 5 * kMinute), /*prime=*/false);
  hybrid.Start();
  rig.sim().RunUntil(kMinute);
  hybrid.Stop();

  ExperimentRig rig2(1, "odyssey");
  SpeechFrontEndOptions remote_options;
  remote_options.mode = SpeechMode::kAlwaysRemote;
  SpeechFrontEnd remote(&rig2.client(), remote_options);
  rig2.Replay(MakeConstant(kLowBandwidth, 5 * kMinute), /*prime=*/false);
  remote.Start();
  rig2.sim().RunUntil(kMinute);
  remote.Stop();

  const double hybrid_mean = hybrid.MeanSecondsBetween(0, kMinute);
  const double remote_mean = remote.MeanSecondsBetween(0, kMinute);
  EXPECT_LT(hybrid_mean, remote_mean);
  EXPECT_NEAR(hybrid_mean, 0.85, 0.08);
  EXPECT_NEAR(remote_mean, 1.15, 0.12);
}

TEST(SpeechFrontEndTest, AdaptiveMatchesAlwaysHybrid) {
  // Figure 12: "Odyssey duplicates the always-hybrid strategy" at the
  // reference bandwidths.
  ExperimentRig rig(2, "odyssey");
  SpeechFrontEnd adaptive(&rig.client(), SpeechFrontEndOptions{});
  const Time measure = rig.Replay(MakeConstant(kHighBandwidth, 5 * kMinute));
  adaptive.Start();
  rig.sim().RunUntil(measure + kMinute);
  adaptive.Stop();
  ASSERT_FALSE(adaptive.outcomes().empty());
  int hybrid_count = 0;
  int total = 0;
  for (const auto& outcome : adaptive.outcomes()) {
    if (outcome.started >= measure) {
      ++total;
      hybrid_count += outcome.plan == static_cast<int>(SpeechMode::kAlwaysHybrid) ? 1 : 0;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_EQ(hybrid_count, total);
  EXPECT_NEAR(adaptive.MeanSecondsBetween(measure, measure + kMinute), 0.78, 0.08);
}

// --- Bitstream app ---

TEST(BitstreamAppTest, StartExposesConnection) {
  ExperimentRig rig(1, "odyssey");
  BitstreamApp app(&rig.client(), "bitstream-1");
  rig.Replay(MakeConstant(kHighBandwidth, kMinute), /*prime=*/false);
  app.Start();
  rig.sim().RunUntil(kSecond);
  EXPECT_TRUE(app.running());
  EXPECT_GT(app.connection(), 0u);
  app.Stop();
  rig.sim().RunUntil(2 * kSecond);
  EXPECT_FALSE(app.running());
}

TEST(BitstreamAppTest, DrivesSupplyEstimateToLinkRate) {
  ExperimentRig rig(2, "odyssey");
  BitstreamApp app(&rig.client(), "bitstream-1");
  rig.Replay(MakeConstant(kHighBandwidth, kMinute), /*prime=*/false);
  app.Start();
  rig.sim().RunUntil(20 * kSecond);
  ASSERT_NE(rig.centralized(), nullptr);
  EXPECT_NEAR(rig.centralized()->TotalSupply(rig.sim().now()), kHighBandwidth,
              0.1 * kHighBandwidth);
}

}  // namespace
}  // namespace odyssey
