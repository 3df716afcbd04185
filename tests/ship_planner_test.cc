// Tests for the generic function-versus-data shipping planner and the
// speech warden's vocabulary fidelity levels built on it.

#include <limits>

#include <gtest/gtest.h>

#include "src/core/ship_planner.h"
#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/wardens/speech_warden.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

TEST(ShipPlannerTest, LocalCandidateIgnoresNetwork) {
  ShipCandidate local{"local", 2 * kSecond, 0, 0.0, 0.0};
  EXPECT_TRUE(ShipPlanner::IsLocal(local));
  EXPECT_EQ(ShipPlanner::Predict(local, 0.0, 0), 2 * kSecond);
  EXPECT_EQ(ShipPlanner::Predict(local, 1e9, 0), 2 * kSecond);
}

TEST(ShipPlannerTest, NetworkCandidateInfeasibleAtZeroBandwidth) {
  ShipCandidate remote{"remote", 0, kSecond, 10.0 * kKb, 0.0};
  EXPECT_FALSE(ShipPlanner::IsLocal(remote));
  EXPECT_EQ(ShipPlanner::Predict(remote, 0.0, 0), std::numeric_limits<Duration>::max());
}

TEST(ShipPlannerTest, PredictSumsComputeTransferAndRtt) {
  ShipCandidate candidate{"c", 100 * kMillisecond, 200 * kMillisecond, 50.0 * kKb, 50.0 * kKb};
  const Duration predicted = ShipPlanner::Predict(candidate, 100.0 * kKb, 21 * kMillisecond);
  // 0.1 + 0.2 compute, 100KB/100KBps = 1.0 transfer, 0.021 rtt.
  EXPECT_EQ(predicted, SecondsToDuration(0.1 + 0.2 + 1.0 + 0.021));
}

TEST(ShipPlannerTest, RemoteOnlyComputeStillPaysRtt) {
  ShipCandidate candidate{"rpc", 0, kSecond, 0.0, 0.0};
  EXPECT_EQ(ShipPlanner::Predict(candidate, 100.0 * kKb, 21 * kMillisecond),
            kSecond + 21 * kMillisecond);
  EXPECT_EQ(ShipPlanner::Predict(candidate, 0.0, 21 * kMillisecond),
            std::numeric_limits<Duration>::max());
}

TEST(ShipPlannerTest, ChoosePicksFastestFeasible) {
  const std::vector<ShipCandidate> candidates = {
      {"slow-local", 10 * kSecond, 0, 0.0, 0.0},
      {"fast-remote", 0, kSecond, 10.0 * kKb, 0.0},
  };
  // Plenty of bandwidth: remote wins.
  EXPECT_EQ(ShipPlanner::Choose(candidates, 1000.0 * kKb, kMillisecond), 1);
  // No bandwidth: remote infeasible, local wins.
  EXPECT_EQ(ShipPlanner::Choose(candidates, 0.0, kMillisecond), 0);
}

TEST(ShipPlannerTest, ChooseEmptyOrAllInfeasible) {
  EXPECT_EQ(ShipPlanner::Choose({}, 1e6, 0), -1);
  const std::vector<ShipCandidate> only_remote = {{"r", 0, kSecond, 1.0, 0.0}};
  EXPECT_EQ(ShipPlanner::Choose(only_remote, 0.0, 0), -1);
}

TEST(ShipPlannerTest, CrossoverMovesWithBandwidth) {
  // Local costs a fixed 1 s; remote costs 0.1 s compute plus shipping 90 KB.
  const std::vector<ShipCandidate> candidates = {
      {"local", kSecond, 0, 0.0, 0.0},
      {"remote", 0, 100 * kMillisecond, 90.0 * kKb, 0.0},
  };
  // Below the crossover (90KB / 0.9s = 100 KB/s) local wins...
  EXPECT_EQ(ShipPlanner::Choose(candidates, 50.0 * kKb, 0), 0);
  // ...above it remote wins.
  EXPECT_EQ(ShipPlanner::Choose(candidates, 400.0 * kKb, 0), 1);
}

// --- Speech candidates through the planner ---

TEST(SpeechCandidatesTest, ThreePlansWithExpectedShape) {
  const std::vector<ShipCandidate> candidates = SpeechWarden::Candidates(kSpeechRawBytes, 0);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].name, "hybrid");
  EXPECT_EQ(candidates[1].name, "remote");
  EXPECT_EQ(candidates[2].name, "local");
  // Hybrid ships 5:1 compressed data; remote ships raw.
  EXPECT_NEAR(candidates[0].upload_bytes * kSpeechCompressionRatio, candidates[1].upload_bytes,
              1.0);
  EXPECT_TRUE(ShipPlanner::IsLocal(candidates[2]));
  // Local is the most client-compute-intensive by far.
  EXPECT_GT(candidates[2].local_compute, 4 * candidates[0].local_compute);
}

TEST(SpeechCandidatesTest, SmallerVocabularyComputesFaster) {
  const auto full = SpeechWarden::Candidates(kSpeechRawBytes, 0);
  const auto tiny = SpeechWarden::Candidates(kSpeechRawBytes, 2);
  EXPECT_LT(tiny[0].remote_compute, full[0].remote_compute);
  EXPECT_LT(tiny[2].local_compute, full[2].local_compute);
  // Shipping costs do not change with vocabulary.
  EXPECT_DOUBLE_EQ(tiny[0].upload_bytes, full[0].upload_bytes);
}

TEST(SpeechVocabularyTest, NoGoalMeansFullFidelity) {
  EXPECT_EQ(SpeechWarden::ChooseVocabulary(SpeechMode::kAlwaysHybrid, kSpeechRawBytes, 0.0,
                                           kHighBandwidth, 21 * kMillisecond),
            0);
}

TEST(SpeechVocabularyTest, TightGoalLowersVocabulary) {
  // Hybrid at high bandwidth takes ~0.7 s at full vocabulary; a 0.5 s goal
  // forces a smaller one.
  const int vocab = SpeechWarden::ChooseVocabulary(SpeechMode::kAlwaysHybrid, kSpeechRawBytes,
                                                   0.5, kHighBandwidth, 21 * kMillisecond);
  EXPECT_GT(vocab, 0);
  // An impossible goal degrades to the tiny vocabulary rather than failing.
  const int tiny = SpeechWarden::ChooseVocabulary(SpeechMode::kAlwaysHybrid, kSpeechRawBytes,
                                                  0.01, kHighBandwidth, 21 * kMillisecond);
  EXPECT_EQ(tiny, static_cast<int>(std::size(kSpeechVocabularies)) - 1);
}

TEST(SpeechVocabularyTest, VocabularyFidelitiesStrictlyDecrease) {
  for (size_t i = 1; i < std::size(kSpeechVocabularies); ++i) {
    EXPECT_LT(kSpeechVocabularies[i].fidelity, kSpeechVocabularies[i - 1].fidelity);
    EXPECT_LT(kSpeechVocabularies[i].compute_factor, kSpeechVocabularies[i - 1].compute_factor);
  }
}

TEST(SpeechVocabularyTest, EndToEndGoalDrivenRecognition) {
  ExperimentRig rig(1, "odyssey");
  const AppId app = rig.client().RegisterApplication("speech");
  rig.Replay(MakeConstant(kHighBandwidth, 5 * kMinute), /*prime=*/false);

  const auto recognize = [&](double goal_seconds) {
    SpeechResult result;
    const Time start = rig.sim().now();
    Time end = start;
    rig.client().Tsop(app, std::string(kOdysseyRoot) + "speech/janus", kSpeechRecognize,
                      PackStruct(SpeechUtterance{kSpeechRawBytes, goal_seconds}),
                      [&](Status status, std::string out) {
                        ASSERT_TRUE(status.ok());
                        EXPECT_TRUE(UnpackStruct(out, &result));
                        end = rig.sim().now();
                      });
    rig.sim().RunUntil(rig.sim().now() + 30 * kSecond);
    return std::pair<SpeechResult, Duration>(result, end - start);
  };

  // Warm the estimator with one unconstrained recognition.
  recognize(0.0);
  const auto [full, full_time] = recognize(0.0);
  EXPECT_DOUBLE_EQ(full.fidelity, 1.0);
  const auto [fast, fast_time] = recognize(0.5);
  EXPECT_LT(fast.fidelity, 1.0);
  EXPECT_LT(fast_time, full_time);
  EXPECT_LE(DurationToSeconds(fast_time), 0.55);
}

}  // namespace
}  // namespace odyssey
