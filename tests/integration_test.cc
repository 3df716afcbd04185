// Integration tests: whole-system behaviours the paper's evaluation claims.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/apps/bitstream_app.h"
#include "src/apps/speech_frontend.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/metrics/experiment.h"
#include "src/metrics/trial.h"
#include "src/strategies/centralized.h"
#include "src/strategies/strategy_registry.h"
#include "src/trace/trace_recorder.h"

namespace odyssey {
namespace {

// --- The rig builds every registered strategy ---

TEST(ExperimentRigTest, BuildsEveryRegisteredStrategy) {
  for (const std::string& name : StrategyRegistry::Builtin().Names()) {
    SCOPED_TRACE(name);
    ExperimentRig rig(1, name);
    BandwidthStrategy& strategy = rig.client().viceroy().strategy();
    EXPECT_EQ(strategy.name(), name);
    EXPECT_EQ(rig.centralized(), strategy.audit_surface());
    // A short bitstream trial moves bytes and leaves an estimate behind.
    BitstreamApp app(&rig.client(), "bitstream");
    rig.Replay(MakeConstant(kHighBandwidth, kMinute), /*prime=*/false);
    app.Start();
    rig.sim().RunUntil(10 * kSecond);
    EXPECT_GT(rig.link().bytes_delivered(), 0.0);
    EXPECT_TRUE(strategy.HasEstimate());
  }
}

// --- RigSpec: every field reaches the stack the rig builds ---

// The installed wardens' names, space-separated in install order.
std::string WardenNames(ExperimentRig& rig) {
  std::string names;
  for (const std::unique_ptr<Warden>& warden : rig.client().wardens()) {
    names += (names.empty() ? "" : " ") + warden->name();
  }
  return names;
}

TEST(RigSpecTest, DefaultsAreThePaperRig) {
  ExperimentRig rig(RigSpec{});
  EXPECT_DOUBLE_EQ(rig.link().capacity_bps(), kHighBandwidth);
  EXPECT_EQ(rig.link().latency(), kOneWayLatency);
  EXPECT_EQ(rig.client().viceroy().strategy().name(), "odyssey");
  EXPECT_STREQ(rig.centralized()->supply_model().name(), "incremental");
  EXPECT_TRUE(rig.client().viceroy().strategy().TakeReevalHint(rig.sim().now()).exact);
  EXPECT_EQ(WardenNames(rig), "video web speech bitstream");
  // The farm draws its session jitter as it is built.
  EXPECT_NE(rig.sim().rng().NextU64(), Simulation(1).rng().NextU64());
}

TEST(RigSpecTest, EveryFieldReachesTheStack) {
  TraceRecorder recorder;
  RigSpec spec;
  spec.seed = 42;
  spec.strategy = "congestion-manager";
  spec.link = TraceSegment{0, 77.0 * 1024.0, 3 * kMillisecond};
  spec.reference = true;
  spec.servers = RigServers::kFuzz;
  spec.trace = &recorder;
  ExperimentRig rig(spec);
  EXPECT_EQ(rig.sim().trace(), &recorder);
  EXPECT_DOUBLE_EQ(rig.link().capacity_bps(), 77.0 * 1024.0);
  EXPECT_EQ(rig.link().latency(), 3 * kMillisecond);
  EXPECT_EQ(rig.client().viceroy().strategy().name(), "congestion-manager");
  EXPECT_STREQ(rig.centralized()->supply_model().name(), "naive");
  EXPECT_EQ(WardenNames(rig), "video web speech bitstream files telemetry");
  BitstreamApp app(&rig.client(), "bitstream");
  app.Start();
  rig.sim().RunUntil(5 * kSecond);
  EXPECT_GT(recorder.recorded_count(), 0u);
}

TEST(RigSpecTest, ReferenceHintsAreInexactForEveryStrategy) {
  // A reference rig differs from a production one only in its injected
  // NaiveSupplyModel; nothing else sends its viceroy down the scan of every
  // window holder.  So the strategy's hint must be inexact, whichever
  // strategy the rig holds.
  for (const std::string& name : StrategyRegistry::Builtin().Names()) {
    ExperimentRig rig({.strategy = name, .reference = true, .servers = RigServers::kNone});
    EXPECT_FALSE(rig.client().viceroy().strategy().TakeReevalHint(rig.sim().now()).exact)
        << name;
  }
}

TEST(RigSpecTest, NoServersInstallsNothingAndDrawsNothing) {
  ExperimentRig rig({.seed = 42, .servers = RigServers::kNone});
  EXPECT_EQ(WardenNames(rig), "");
  EXPECT_EQ(rig.sim().rng().NextU64(), Simulation(42).rng().NextU64());
}

// --- Agility of supply estimation (Figure 8 behaviours) ---

class SupplyAgilityTest : public ::testing::Test {
 protected:
  // Runs a max-rate bitstream over |waveform| and samples the supply
  // estimate every 100 ms.  Returns the series relative to measurement
  // start.
  Series RunWaveform(Waveform waveform, uint64_t seed = 1) {
    ExperimentRig rig(seed, "odyssey");
    BitstreamApp app(&rig.client(), "bitstream");
    const Time measure = rig.Replay(MakeWaveform(waveform));
    app.Start();
    Sampler sampler(&rig.sim(), 100 * kMillisecond, measure, [&rig] {
      return rig.centralized()->TotalSupply(rig.sim().now());
    });
    rig.sim().ScheduleAt(measure, [&] { sampler.Run(measure + kWaveformLength); });
    rig.sim().RunUntil(measure + kWaveformLength);
    return sampler.series();
  }
};

TEST_F(SupplyAgilityTest, StepUpDetectedQuickly) {
  const Series series = RunWaveform(Waveform::kStepUp);
  // Paper: the Step-Up increase is detected almost instantaneously.
  const double settle =
      SettlingTime(series, 30.0, 0.9 * kHighBandwidth, 1.15 * kHighBandwidth);
  ASSERT_GE(settle, 0.0);
  EXPECT_LE(settle, 1.5);
}

TEST_F(SupplyAgilityTest, StepDownSettlesWithinAFewSeconds) {
  const Series series = RunWaveform(Waveform::kStepDown);
  // Paper: settling time ~2.0 s, limited by the window in flight when
  // bandwidth falls.
  const double settle = SettlingTime(series, 30.0, 0.85 * kLowBandwidth, 1.2 * kLowBandwidth);
  ASSERT_GE(settle, 0.0);
  EXPECT_LE(settle, 5.0);
  EXPECT_GE(settle, 0.5);
}

TEST_F(SupplyAgilityTest, SteadyEstimateBeforeTransition) {
  const Series series = RunWaveform(Waveform::kStepUp);
  for (const auto& point : series) {
    if (point.t_seconds > 5.0 && point.t_seconds < 29.0) {
      EXPECT_NEAR(point.value, kLowBandwidth, 0.15 * kLowBandwidth)
          << "at t=" << point.t_seconds;
    }
  }
}

TEST_F(SupplyAgilityTest, ImpulseUpLeadingEdgeTraced) {
  const Series series = RunWaveform(Waveform::kImpulseUp);
  double peak = 0.0;
  for (const auto& point : series) {
    if (point.t_seconds >= 29.0 && point.t_seconds <= 32.0) {
      peak = std::max(peak, point.value);
    }
  }
  // The two-second impulse to 120 KB/s must be visible.
  EXPECT_GT(peak, 0.75 * kHighBandwidth);
}

TEST_F(SupplyAgilityTest, ImpulseDownReturnsToHigh) {
  const Series series = RunWaveform(Waveform::kImpulseDown);
  const double settle =
      SettlingTime(series, 31.0, 0.85 * kHighBandwidth, 1.15 * kHighBandwidth);
  ASSERT_GE(settle, 0.0);
  EXPECT_LE(settle, 6.0);
}

// --- Agility of demand estimation (Figure 9 behaviours) ---

TEST(DemandAgilityTest, SecondStreamConvergesTowardFairShare) {
  ExperimentRig rig(1, "odyssey");
  BitstreamApp first(&rig.client(), "bitstream-1");
  BitstreamApp second(&rig.client(), "bitstream-2");
  rig.Replay(MakeConstant(kHighBandwidth, 3 * kMinute), /*prime=*/false);
  first.Start();  // 100% utilization
  rig.sim().ScheduleAt(kMinute, [&] { second.Start(); });
  rig.sim().RunUntil(kMinute + 30 * kSecond);
  // With both streams saturating, each connection's share settles near the
  // fair share of 60 KB/s.
  const double share2 =
      rig.centralized()->ConnectionAvailability(second.connection(), rig.sim().now());
  EXPECT_NEAR(share2, kHighBandwidth / 2.0, 0.2 * kHighBandwidth);
  const double total = rig.centralized()->TotalSupply(rig.sim().now());
  EXPECT_NEAR(total, kHighBandwidth, 0.15 * kHighBandwidth);
}

TEST(DemandAgilityTest, LowUtilizationStreamsDoNotInflateSupply) {
  ExperimentRig rig(2, "odyssey");
  BitstreamApp first(&rig.client(), "bitstream-1");
  BitstreamApp second(&rig.client(), "bitstream-2");
  rig.Replay(MakeConstant(kHighBandwidth, 3 * kMinute), /*prime=*/false);
  first.Start(0.10 * kHighBandwidth);
  rig.sim().ScheduleAt(kMinute, [&] { second.Start(0.10 * kHighBandwidth); });
  rig.sim().RunUntil(2 * kMinute);
  const double total = rig.centralized()->TotalSupply(rig.sim().now());
  EXPECT_NEAR(total, kHighBandwidth, 0.2 * kHighBandwidth);
}

// --- Centralized versus uncoordinated management (Figure 14 behaviours) ---

struct ConcurrentResult {
  int video_drops = 0;
  double video_fidelity = 0.0;
  double web_seconds = 0.0;
  double web_fidelity = 0.0;
  double speech_seconds = 0.0;
};

ConcurrentResult RunConcurrent(const std::string& strategy, uint64_t seed) {
  ExperimentRig rig(seed, strategy);
  VideoPlayerOptions video_options;
  video_options.frames_to_play = 2000;  // runs past the measured window
  VideoPlayer video(&rig.client(), video_options);
  WebBrowser web(&rig.client(), WebBrowserOptions{});
  SpeechFrontEnd speech(&rig.client(), SpeechFrontEndOptions{});

  // A shortened urban walk: high, low, high, low, high (30 s each).
  ReplayTrace trace;
  trace.Append(30 * kSecond, kHighBandwidth, kOneWayLatency);
  trace.Append(30 * kSecond, kLowBandwidth, kOneWayLatency);
  trace.Append(30 * kSecond, kHighBandwidth, kOneWayLatency);
  trace.Append(30 * kSecond, kLowBandwidth, kOneWayLatency);
  trace.Append(30 * kSecond, kHighBandwidth, kOneWayLatency);
  const Time measure = rig.Replay(trace);
  const Time end = measure + trace.TotalDuration();

  video.Start();
  web.Start();
  speech.Start();
  rig.sim().RunUntil(end);

  ConcurrentResult result;
  result.video_drops = video.DropsBetween(measure, end);
  result.video_fidelity = video.MeanFidelityBetween(measure, end);
  result.web_seconds = web.MeanSecondsBetween(measure, end);
  result.web_fidelity = web.MeanFidelityBetween(measure, end);
  result.speech_seconds = speech.MeanSecondsBetween(measure, end);
  return result;
}

TEST(ConcurrentStrategiesTest, OdysseyDropsFarFewerFramesThanBlindOptimism) {
  const ConcurrentResult odyssey = RunConcurrent("odyssey", 1);
  const ConcurrentResult blind = RunConcurrent("blind-optimism", 1);
  // Paper: "Odyssey drops a factor of 2 to 5 fewer frames than the other
  // strategies."
  EXPECT_LT(odyssey.video_drops * 2, blind.video_drops);
  // The trade: blind optimism plays higher fidelity but misses goals.
  EXPECT_GE(blind.video_fidelity, odyssey.video_fidelity);
}

TEST(ConcurrentStrategiesTest, OdysseyBeatsLaissezFaireOnDrops) {
  // Aggregate several seeds: at Odyssey's drop levels a single short trace
  // is noisy.
  int odyssey_drops = 0;
  int laissez_drops = 0;
  for (uint64_t seed = 2; seed <= 5; ++seed) {
    odyssey_drops += RunConcurrent("odyssey", seed).video_drops;
    laissez_drops += RunConcurrent("laissez-faire", seed).video_drops;
  }
  EXPECT_LT(odyssey_drops, laissez_drops);
}

TEST(ConcurrentStrategiesTest, OdysseyWebPagesLoadFaster) {
  const ConcurrentResult odyssey = RunConcurrent("odyssey", 3);
  const ConcurrentResult blind = RunConcurrent("blind-optimism", 3);
  // Paper: "Web pages are loaded and displayed roughly twice as fast."
  EXPECT_LT(odyssey.web_seconds, blind.web_seconds);
  EXPECT_LT(odyssey.web_fidelity, blind.web_fidelity + 1e-9);
}

TEST(ConcurrentStrategiesTest, AllAppsMakeProgressUnderEveryStrategy) {
  for (const char* strategy : {"odyssey", "laissez-faire", "blind-optimism"}) {
    const ConcurrentResult result = RunConcurrent(strategy, 4);
    EXPECT_GT(result.web_seconds, 0.0) << strategy;
    EXPECT_GT(result.speech_seconds, 0.0) << strategy;
    EXPECT_GT(result.video_fidelity, 0.0) << strategy;
  }
}

// --- Determinism ---

TEST(DeterminismTest, SameSeedSameResult) {
  const ConcurrentResult a = RunConcurrent("odyssey", 7);
  const ConcurrentResult b = RunConcurrent("odyssey", 7);
  EXPECT_EQ(a.video_drops, b.video_drops);
  EXPECT_DOUBLE_EQ(a.video_fidelity, b.video_fidelity);
  EXPECT_DOUBLE_EQ(a.web_seconds, b.web_seconds);
  EXPECT_DOUBLE_EQ(a.speech_seconds, b.speech_seconds);
}

TEST(DeterminismTest, DifferentSeedsJitter) {
  const ConcurrentResult a = RunConcurrent("odyssey", 8);
  const ConcurrentResult b = RunConcurrent("odyssey", 9);
  // Trials differ (jittered compute costs) but only modestly.
  EXPECT_NE(a.web_seconds, b.web_seconds);
  EXPECT_NEAR(a.web_seconds, b.web_seconds, 0.5 * a.web_seconds);
}

}  // namespace
}  // namespace odyssey
