// Unit tests for the wardens, run against the full experiment rig, plus
// edge cases of the request/cancel/upcall contract they sit on.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/servers/calibration.h"
#include "src/servers/telemetry_server.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

std::string VideoPath() { return std::string(kOdysseyRoot) + "video/default"; }
std::string WebPath() { return std::string(kOdysseyRoot) + "web/session"; }
std::string SpeechPath() { return std::string(kOdysseyRoot) + "speech/janus"; }
std::string BitstreamPath() { return std::string(kOdysseyRoot) + "bitstream/stream"; }

class WardenTest : public ::testing::Test {
 protected:
  WardenTest() : rig_(1, "odyssey") {
    app_ = rig_.client().RegisterApplication("test-app");
    rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  }

  ExperimentRig rig_;
  AppId app_ = 0;
};

// --- Video warden ---

TEST_F(WardenTest, VideoOpenReturnsMeta) {
  VideoMetaReply meta;
  Status status;
  rig_.client().Tsop(app_, VideoPath(), kVideoOpen, kDefaultMovie,
                     [&](Status s, std::string out) {
                       status = s;
                       EXPECT_TRUE(UnpackStruct(out, &meta));
                     });
  ASSERT_TRUE(status.ok());
  EXPECT_DOUBLE_EQ(meta.fps, kVideoFps);
  EXPECT_EQ(meta.frame_count, kVideoFramesPerTrial);
  EXPECT_EQ(meta.track_count, 3);
  // Track requirements honour the §6.1.3 design: JPEG(99) fits the high
  // bandwidth, JPEG(50) fits the low bandwidth.
  EXPECT_LT(meta.required_bps[0], kHighBandwidth);
  EXPECT_GT(meta.required_bps[0], kLowBandwidth);
  EXPECT_LT(meta.required_bps[1], kLowBandwidth);
  EXPECT_GT(meta.fidelity[0], meta.fidelity[1]);
  EXPECT_GT(meta.fidelity[1], meta.fidelity[2]);
}

TEST_F(WardenTest, VideoOpenUnknownMovieFails) {
  Status status;
  rig_.client().Tsop(app_, std::string(kOdysseyRoot) + "video/nope", kVideoOpen, "nope",
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(WardenTest, VideoReadAheadFillsBuffer) {
  rig_.client().Tsop(app_, VideoPath(), kVideoOpen, kDefaultMovie, [](Status, std::string) {});
  rig_.sim().RunUntil(2 * kSecond);
  // After two seconds at high bandwidth the prefetcher has frames ready:
  // taking frame 0 succeeds at full fidelity.
  VideoTakeFrameReply reply;
  rig_.client().Tsop(app_, VideoPath(), kVideoTakeFrame, PackStruct(VideoTakeFrameRequest{0}),
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &reply)); });
  EXPECT_TRUE(reply.present);
  EXPECT_EQ(reply.track, 0);
  EXPECT_DOUBLE_EQ(reply.fidelity, kVideoJpeg99Fidelity);
}

TEST_F(WardenTest, VideoMissedDeadlineReportsAbsent) {
  rig_.client().Tsop(app_, VideoPath(), kVideoOpen, kDefaultMovie, [](Status, std::string) {});
  rig_.sim().RunUntil(2 * kSecond);
  // Frame 500 has certainly not been prefetched two seconds in.
  VideoTakeFrameReply reply;
  rig_.client().Tsop(app_, VideoPath(), kVideoTakeFrame,
                     PackStruct(VideoTakeFrameRequest{500}),
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &reply)); });
  EXPECT_FALSE(reply.present);
}

TEST_F(WardenTest, VideoUpgradeDiscardsLowFidelityPrefetch) {
  rig_.client().Tsop(app_, VideoPath(), kVideoOpen, kDefaultMovie, [](Status, std::string) {});
  // Switch to the B/W track and let the prefetcher fill with B/W frames.
  rig_.client().Tsop(app_, VideoPath(), kVideoSetTrack, PackStruct(VideoSetTrackRequest{2}),
                     [](Status, std::string) {});
  rig_.sim().RunUntil(3 * kSecond);
  // Upgrade to JPEG(99): prefetched B/W frames must be discarded (§5.1).
  rig_.client().Tsop(app_, VideoPath(), kVideoSetTrack, PackStruct(VideoSetTrackRequest{0}),
                     [](Status, std::string) {});
  rig_.sim().RunUntil(3 * kSecond + 100 * kMillisecond);
  VideoWardenStats stats;
  rig_.client().Tsop(app_, VideoPath(), kVideoStats, "",
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &stats)); });
  EXPECT_GT(stats.frames_discarded_upgrade, 0);
  // After the refetch completes, frame 0 is served at the new fidelity.
  rig_.sim().RunUntil(6 * kSecond);
  VideoTakeFrameReply reply;
  rig_.client().Tsop(app_, VideoPath(), kVideoTakeFrame, PackStruct(VideoTakeFrameRequest{0}),
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &reply)); });
  EXPECT_TRUE(reply.present);
  EXPECT_DOUBLE_EQ(reply.fidelity, kVideoJpeg99Fidelity);
}

TEST_F(WardenTest, VideoDowngradeKeepsBetterFrames) {
  rig_.client().Tsop(app_, VideoPath(), kVideoOpen, kDefaultMovie, [](Status, std::string) {});
  rig_.sim().RunUntil(2 * kSecond);  // buffer JPEG(99) frames
  rig_.client().Tsop(app_, VideoPath(), kVideoSetTrack, PackStruct(VideoSetTrackRequest{1}),
                     [](Status, std::string) {});
  // Already-buffered higher-fidelity frames are kept and displayed.
  VideoTakeFrameReply reply;
  rig_.client().Tsop(app_, VideoPath(), kVideoTakeFrame, PackStruct(VideoTakeFrameRequest{0}),
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &reply)); });
  EXPECT_TRUE(reply.present);
  EXPECT_DOUBLE_EQ(reply.fidelity, kVideoJpeg99Fidelity);
}

TEST_F(WardenTest, VideoBadRequestsRejected) {
  Status status;
  rig_.client().Tsop(app_, VideoPath(), kVideoSetTrack, "garbage",
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  rig_.client().Tsop(app_, VideoPath(), 999, "", [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
  rig_.client().Tsop(app_, VideoPath(), kVideoOpen, kDefaultMovie, [](Status, std::string) {});
  rig_.client().Tsop(app_, VideoPath(), kVideoSetTrack, PackStruct(VideoSetTrackRequest{99}),
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(WardenTest, VideoStorageOverheadModest) {
  // §5.1: storing all tracks costs "about 60% more" than the best alone.
  MovieMeta movie = VideoServer::MakeDefaultMovie("m", 100);
  EXPECT_GT(movie.StorageOverhead(), 0.2);
  EXPECT_LT(movie.StorageOverhead(), 0.8);
}

// --- Web warden ---

TEST_F(WardenTest, WebOpenReportsLevels) {
  WebSessionInfo info;
  Status status;
  rig_.client().Tsop(app_, WebPath(), kWebOpen, kTestImageUrl, [&](Status s, std::string out) {
    status = s;
    EXPECT_TRUE(UnpackStruct(out, &info));
  });
  ASSERT_TRUE(status.ok());
  EXPECT_DOUBLE_EQ(info.original_bytes, kWebImageBytes);
  // Sizes strictly decrease with fidelity level.
  EXPECT_GT(info.level_bytes[0], info.level_bytes[1]);
  EXPECT_GT(info.level_bytes[1], info.level_bytes[2]);
  EXPECT_GT(info.level_bytes[2], info.level_bytes[3]);
  EXPECT_DOUBLE_EQ(info.level_fidelity[0], 1.0);
  EXPECT_DOUBLE_EQ(info.level_fidelity[3], 0.05);
}

TEST_F(WardenTest, WebFetchAtRequestedFidelity) {
  rig_.client().Tsop(app_, WebPath(), kWebOpen, kTestImageUrl, [](Status, std::string) {});
  rig_.client().Tsop(app_, WebPath(), kWebSetFidelity, PackStruct(WebSetFidelityRequest{1}),
                     [](Status, std::string) {});
  WebFetchReply reply;
  bool done = false;
  rig_.client().Tsop(app_, WebPath(), kWebFetch, "", [&](Status, std::string out) {
    EXPECT_TRUE(UnpackStruct(out, &reply));
    done = true;
  });
  rig_.sim().RunUntil(5 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_DOUBLE_EQ(reply.fidelity, 0.5);
  EXPECT_DOUBLE_EQ(reply.bytes, kWebJpeg50Bytes);
}

TEST_F(WardenTest, WebFetchTimeScalesWithSize) {
  rig_.client().Tsop(app_, WebPath(), kWebOpen, kTestImageUrl, [](Status, std::string) {});
  const auto timed_fetch = [&](int level) {
    rig_.client().Tsop(app_, WebPath(), kWebSetFidelity, PackStruct(WebSetFidelityRequest{level}),
                       [](Status, std::string) {});
    const Time start = rig_.sim().now();
    Time end = start;
    rig_.client().Tsop(app_, WebPath(), kWebFetch, "", [&](Status, std::string) {
      end = rig_.sim().now();
    });
    rig_.sim().RunUntil(rig_.sim().now() + 10 * kSecond);
    return end - start;
  };
  const Duration full = timed_fetch(0);
  const Duration tiny = timed_fetch(3);
  EXPECT_GT(full, tiny);
}

TEST_F(WardenTest, WebUnknownUrlFails) {
  Status status;
  rig_.client().Tsop(app_, WebPath(), kWebOpen, "http://nowhere/x.gif",
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(WardenTest, WebFetchWithoutOpenFails) {
  Status status;
  rig_.client().Tsop(app_, WebPath(), kWebFetch, "", [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

// --- Speech warden ---

TEST_F(WardenTest, SpeechAdaptivePlanPrefersHybridAtPaperBandwidths) {
  // At both 120 KB/s and 40 KB/s hybrid beats remote (Figure 12).
  EXPECT_EQ(SpeechWarden::AdaptivePlan(kSpeechRawBytes, kHighBandwidth, 21 * kMillisecond),
            SpeechMode::kAlwaysHybrid);
  EXPECT_EQ(SpeechWarden::AdaptivePlan(kSpeechRawBytes, kLowBandwidth, 21 * kMillisecond),
            SpeechMode::kAlwaysHybrid);
}

TEST_F(WardenTest, SpeechAdaptivePlanShipsRawAtVeryHighBandwidth) {
  // "We have confirmed that at higher bandwidths an adaptive strategy has
  // benefits": when shipping is nearly free, avoiding the slow local first
  // pass wins.
  EXPECT_EQ(SpeechWarden::AdaptivePlan(kSpeechRawBytes, 10000.0 * kKb, kMillisecond),
            SpeechMode::kAlwaysRemote);
}

TEST_F(WardenTest, SpeechAdaptivePlanFallsBackToLocalWhenDisconnected) {
  EXPECT_EQ(SpeechWarden::AdaptivePlan(kSpeechRawBytes, 100.0, 21 * kMillisecond),
            SpeechMode::kAlwaysLocal);
}

TEST_F(WardenTest, SpeechRecognizeCompletesAndReportsPlan) {
  rig_.client().Tsop(app_, SpeechPath(), kSpeechSetMode,
                     PackStruct(SpeechSetModeRequest{static_cast<int>(SpeechMode::kAlwaysHybrid)}),
                     [](Status, std::string) {});
  SpeechResult result;
  bool done = false;
  const Time start = rig_.sim().now();
  Time end = start;
  rig_.client().Tsop(app_, SpeechPath(), kSpeechRecognize,
                     PackStruct(SpeechUtterance{kSpeechRawBytes}),
                     [&](Status, std::string out) {
                       EXPECT_TRUE(UnpackStruct(out, &result));
                       end = rig_.sim().now();
                       done = true;
                     });
  rig_.sim().RunUntil(10 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(result.plan, static_cast<int>(SpeechMode::kAlwaysHybrid));
  // Local preprocess + ship 4.8 KB + recognition ~ 0.7 s.
  EXPECT_NEAR(DurationToSeconds(end - start), 0.71, 0.1);
}

TEST_F(WardenTest, SpeechLocalSlowerThanHybrid) {
  const auto run_mode = [&](SpeechMode mode) {
    rig_.client().Tsop(app_, SpeechPath(), kSpeechSetMode,
                       PackStruct(SpeechSetModeRequest{static_cast<int>(mode)}),
                       [](Status, std::string) {});
    const Time start = rig_.sim().now();
    Time end = start;
    rig_.client().Tsop(app_, SpeechPath(), kSpeechRecognize,
                       PackStruct(SpeechUtterance{kSpeechRawBytes}),
                       [&](Status, std::string) { end = rig_.sim().now(); });
    rig_.sim().RunUntil(rig_.sim().now() + 30 * kSecond);
    return end - start;
  };
  const Duration hybrid = run_mode(SpeechMode::kAlwaysHybrid);
  const Duration local = run_mode(SpeechMode::kAlwaysLocal);
  EXPECT_GT(local, 3 * hybrid);
}

TEST_F(WardenTest, SpeechRejectsBadRequests) {
  Status status;
  rig_.client().Tsop(app_, SpeechPath(), kSpeechRecognize, PackStruct(SpeechUtterance{-5.0}),
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  rig_.client().Tsop(app_, SpeechPath(), kSpeechSetMode, PackStruct(SpeechSetModeRequest{9}),
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(WardenTest, SpeechNetworkTimeoutFallsBackToLocal) {
  // A hybrid recognition whose transfer stalls in a radio shadow is
  // abandoned after the watchdog timeout and recognized locally.
  rig_.client().Tsop(app_, SpeechPath(), kSpeechSetMode,
                     PackStruct(SpeechSetModeRequest{static_cast<int>(SpeechMode::kAlwaysHybrid)}),
                     [](Status, std::string) {});
  // Cut the link before the utterance ships.
  rig_.modulator().Replay(MakeConstant(0.0, 5 * kMinute, kOneWayLatency));
  SpeechResult result;
  bool finished = false;
  const Time start = rig_.sim().now();
  Time end = start;
  rig_.client().Tsop(app_, SpeechPath(), kSpeechRecognize,
                     PackStruct(SpeechUtterance{kSpeechRawBytes}),
                     [&](Status, std::string out) {
                       EXPECT_TRUE(UnpackStruct(out, &result));
                       end = rig_.sim().now();
                       finished = true;
                     });
  rig_.sim().RunUntil(rig_.sim().now() + 30 * kSecond);
  ASSERT_TRUE(finished);
  EXPECT_EQ(result.plan, static_cast<int>(SpeechMode::kAlwaysLocal));
  // Local preprocess + watchdog timeout + local recognition.
  EXPECT_GT(end - start, kSpeechNetworkTimeout);
  EXPECT_LT(end - start, kSpeechNetworkTimeout + 2 * kSpeechRecognizeLocal);
}

TEST_F(WardenTest, SpeechLateNetworkReplyAfterTimeoutIsDropped) {
  // The network reply arriving after the watchdog went local must not
  // complete the tsop twice.
  rig_.client().Tsop(app_, SpeechPath(), kSpeechSetMode,
                     PackStruct(SpeechSetModeRequest{static_cast<int>(SpeechMode::kAlwaysRemote)}),
                     [](Status, std::string) {});
  // Choke the link so the transfer finishes after the watchdog but before
  // the run ends.
  rig_.modulator().Replay(MakeConstant(2.0 * 1024.0, 5 * kMinute, kOneWayLatency));
  int completions = 0;
  rig_.client().Tsop(app_, SpeechPath(), kSpeechRecognize,
                     PackStruct(SpeechUtterance{kSpeechRawBytes}),
                     [&](Status, std::string) { ++completions; });
  rig_.sim().RunUntil(rig_.sim().now() + kMinute);
  EXPECT_EQ(completions, 1);
}

// --- Bitstream warden ---

TEST_F(WardenTest, BitstreamConsumesAtFullRate) {
  BitstreamStarted started;
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStart,
                     PackStruct(BitstreamParams{0.0, 64.0 * kKb}),
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &started)); });
  EXPECT_GT(started.connection, 0u);
  rig_.sim().RunUntil(20 * kSecond);
  BitstreamTotals totals;
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStop, "",
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &totals)); });
  // ~20 s at ~120 KB/s less protocol overhead.
  EXPECT_GT(totals.bytes_consumed, 0.85 * 20.0 * 120.0 * kKb);
  EXPECT_LT(totals.bytes_consumed, 1.01 * 20.0 * 120.0 * kKb);
}

TEST_F(WardenTest, BitstreamPacingLimitsConsumption) {
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStart,
                     PackStruct(BitstreamParams{12.0 * kKb, 16.0 * kKb}),
                     [](Status, std::string) {});
  rig_.sim().RunUntil(20 * kSecond);
  BitstreamTotals totals;
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStop, "",
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &totals)); });
  EXPECT_NEAR(totals.bytes_consumed, 20.0 * 12.0 * kKb, 3.0 * 16.0 * kKb);
}

TEST_F(WardenTest, BitstreamStopHalts) {
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStart,
                     PackStruct(BitstreamParams{0.0, 0.0}), [](Status, std::string) {});
  rig_.sim().RunUntil(5 * kSecond);
  BitstreamTotals totals;
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStop, "",
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &totals)); });
  const double at_stop = totals.bytes_consumed;
  rig_.sim().RunUntil(10 * kSecond);
  // No further consumption after stop (the in-flight window may land).
  BitstreamStarted restarted;
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStart,
                     PackStruct(BitstreamParams{0.0, 0.0}),
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &restarted)); });
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStop, "",
                     [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &totals)); });
  EXPECT_LE(totals.bytes_consumed, at_stop + 65.0 * kKb);
}

TEST_F(WardenTest, BitstreamStopWithoutStartFails) {
  Status status;
  rig_.client().Tsop(app_, BitstreamPath(), kBitstreamStop, "",
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

// --- Edge cases: window bounds, cancel vs. upcall, dead-link tsops ---

TEST_F(WardenTest, FidelityTransitionExactlyAtWindowBoundStaysInside) {
  Viceroy& viceroy = rig_.client().viceroy();
  viceroy.SetStaticLevel(ResourceId::kDiskCacheSpace, 100.0);
  int upcalls = 0;
  double seen_level = -1.0;
  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kDiskCacheSpace;
  descriptor.lower = 50.0;
  descriptor.upper = 150.0;
  descriptor.handler = [&](RequestId, ResourceId, double level) {
    ++upcalls;
    seen_level = level;
  };
  const RequestResult result = rig_.client().Request(app_, descriptor);
  ASSERT_TRUE(result.ok());
  // A transition that lands exactly on either bound is still inside the
  // window of tolerance (§4.2 violation is strict): no upcall.
  viceroy.SetStaticLevel(ResourceId::kDiskCacheSpace, 50.0);
  rig_.sim().RunUntil(rig_.sim().now() + kSecond);
  EXPECT_EQ(upcalls, 0);
  viceroy.SetStaticLevel(ResourceId::kDiskCacheSpace, 150.0);
  rig_.sim().RunUntil(rig_.sim().now() + kSecond);
  EXPECT_EQ(upcalls, 0);
  // The first step past the bound violates the window, exactly once.
  viceroy.SetStaticLevel(ResourceId::kDiskCacheSpace, 150.5);
  rig_.sim().RunUntil(rig_.sim().now() + kSecond);
  EXPECT_EQ(upcalls, 1);
  EXPECT_DOUBLE_EQ(seen_level, 150.5);
  // The upcall consumed the registration; further motion is silent.
  viceroy.SetStaticLevel(ResourceId::kDiskCacheSpace, 10.0);
  rig_.sim().RunUntil(rig_.sim().now() + kSecond);
  EXPECT_EQ(upcalls, 1);
}

TEST_F(WardenTest, CancelDuringUpcallDeliveryCannotSuppressIt) {
  Viceroy& viceroy = rig_.client().viceroy();
  viceroy.SetStaticLevel(ResourceId::kDiskCacheSpace, 100.0);
  int upcalls = 0;
  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kDiskCacheSpace;
  descriptor.lower = 90.0;
  descriptor.upper = 110.0;
  descriptor.handler = [&](RequestId, ResourceId, double) { ++upcalls; };
  const RequestResult result = rig_.client().Request(app_, descriptor);
  ASSERT_TRUE(result.ok());
  // Violating the window posts the upcall and consumes the registration;
  // the delivery is in flight but not yet in the application.
  viceroy.SetStaticLevel(ResourceId::kDiskCacheSpace, 10.0);
  EXPECT_EQ(upcalls, 0);
  // A cancel racing the in-flight upcall must lose: the entry is gone, so
  // the cancel reports failure and the delivery still happens exactly once.
  EXPECT_FALSE(rig_.client().Cancel(result.id).ok());
  rig_.sim().RunUntil(rig_.sim().now() + kSecond);
  EXPECT_EQ(upcalls, 1);

  // The dual guarantee (the upcall-after-cancel oracle relies on it): a
  // cancel that returns ok proves no upcall was posted, so none may ever
  // arrive for that registration.
  int late_upcalls = 0;
  ResourceDescriptor second;
  second.resource = ResourceId::kDiskCacheSpace;
  second.lower = 5.0;
  second.upper = 20.0;
  second.handler = [&](RequestId, ResourceId, double) { ++late_upcalls; };
  const RequestResult granted = rig_.client().Request(app_, second);
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(rig_.client().Cancel(granted.id).ok());
  viceroy.SetStaticLevel(ResourceId::kDiskCacheSpace, 1000.0);
  rig_.sim().RunUntil(rig_.sim().now() + kSecond);
  EXPECT_EQ(late_upcalls, 0);
}

TEST_F(WardenTest, SpeechRecognizeOnZeroBandwidthLinkEndsLocal) {
  // An adaptive recognition issued while the link is dead must complete —
  // either by planning local outright or via the watchdog — never hang.
  rig_.modulator().Replay(MakeConstant(0.0, 5 * kMinute, kOneWayLatency));
  rig_.client().Tsop(app_, SpeechPath(), kSpeechSetMode,
                     PackStruct(SpeechSetModeRequest{static_cast<int>(SpeechMode::kAdaptive)}),
                     [](Status, std::string) {});
  SpeechResult result;
  bool finished = false;
  rig_.client().Tsop(app_, SpeechPath(), kSpeechRecognize,
                     PackStruct(SpeechUtterance{kSpeechRawBytes}),
                     [&](Status s, std::string out) {
                       EXPECT_TRUE(s.ok());
                       EXPECT_TRUE(UnpackStruct(out, &result));
                       finished = true;
                     });
  rig_.sim().RunUntil(rig_.sim().now() + kMinute);
  ASSERT_TRUE(finished);
  EXPECT_EQ(result.plan, static_cast<int>(SpeechMode::kAlwaysLocal));
}

TEST_F(WardenTest, TelemetrySubscribeOnZeroBandwidthLinkStallsSafely) {
  TelemetryServer server(&rig_.sim());
  server.CreateFeed("stocks/ACME", 100 * kMillisecond, 100.0, 0.2);
  rig_.client().InstallWarden(std::make_unique<TelemetryWarden>(&server));
  rig_.modulator().Replay(MakeConstant(0.0, 5 * kMinute, kOneWayLatency));
  const std::string path = std::string(kOdysseyRoot) + "telemetry/stocks/ACME";
  // Subscribing is a control operation: it must succeed with no network.
  Status subscribed;
  rig_.client().Tsop(app_, path, kTelemetrySubscribe,
                     PackStruct(TelemetrySubscribeRequest{0}),
                     [&](Status s, std::string) { subscribed = s; });
  ASSERT_TRUE(subscribed.ok());
  rig_.sim().RunUntil(rig_.sim().now() + 20 * kSecond);
  // The poll pipeline stalls on the dead link: it must neither fabricate
  // samples nor crash, and the stats op still answers locally.
  TelemetryStats stats;
  Status stats_status;
  rig_.client().Tsop(app_, path, kTelemetryStats, "",
                     [&](Status s, std::string out) {
                       stats_status = s;
                       EXPECT_TRUE(UnpackStruct(out, &stats));
                     });
  ASSERT_TRUE(stats_status.ok());
  EXPECT_LE(stats.samples_delivered, 2);
  Status unsubscribed;
  rig_.client().Tsop(app_, path, kTelemetryUnsubscribe, "",
                     [&](Status s, std::string) { unsubscribed = s; });
  EXPECT_TRUE(unsubscribed.ok());
}

}  // namespace
}  // namespace odyssey
