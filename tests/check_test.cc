// Tests for odycheck: scenario synthesis, invariant oracles, the runner's
// determinism, and the shrinker (DESIGN.md §11).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/check/shrink.h"
#include "src/check/tracking_window.h"
#include "src/core/resource.h"
#include "src/core/viceroy.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/arbitration_strategy.h"
#include "src/strategies/centralized.h"

namespace odyssey {
namespace {

// --- Scenario generation ---

TEST(FuzzScenarioTest, GenerationIsDeterministic) {
  const FuzzScenario a = GenerateScenario(42);
  const FuzzScenario b = GenerateScenario(42);
  EXPECT_EQ(a.ElementCount(), b.ElementCount());
  EXPECT_EQ(a.Describe(), b.Describe());
  const FuzzScenario c = GenerateScenario(43);
  EXPECT_NE(a.Describe(), c.Describe());
}

TEST(FuzzScenarioTest, GenerationHonorsDocumentedGuarantees) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const FuzzScenario scenario = GenerateScenario(seed);
    EXPECT_GT(scenario.horizon, 0) << "seed " << seed;
    ASSERT_FALSE(scenario.segments.empty()) << "seed " << seed;
    EXPECT_GT(scenario.segments.back().bandwidth_bps, 0.0) << "seed " << seed;
    for (const TraceSegment& segment : scenario.segments) {
      EXPECT_GT(segment.duration, 0) << "seed " << seed;
      EXPECT_GE(segment.bandwidth_bps, 0.0) << "seed " << seed;
    }
    ASSERT_FALSE(scenario.apps.empty()) << "seed " << seed;
    for (const FuzzApp& app : scenario.apps) {
      EXPECT_GE(app.start, 0) << "seed " << seed;
      EXPECT_LT(app.start, scenario.horizon) << "seed " << seed;
      for (const FuzzOp& op : app.ops) {
        EXPECT_GE(op.at, app.start) << "seed " << seed;
        EXPECT_LE(op.at, scenario.horizon) << "seed " << seed;
      }
    }
    EXPECT_EQ(scenario.seed, seed);
  }
}

TEST(FuzzScenarioTest, GenerationCoversEveryWarden) {
  std::set<FuzzWardenKind> seen;
  for (uint64_t seed = 1; seed <= 64 && seen.size() < kFuzzWardenKinds; ++seed) {
    for (const FuzzApp& app : GenerateScenario(seed).apps) {
      seen.insert(app.warden);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kFuzzWardenKinds));
}

TEST(FuzzScenarioTest, ElementCountSumsParts) {
  FuzzScenario scenario;
  scenario.segments = {TraceSegment{kSecond, 1000.0, 0}};
  scenario.apps.push_back(FuzzApp{FuzzWardenKind::kWeb, 0, {FuzzOp{}, FuzzOp{}}});
  scenario.faults.push_back(FuzzFault{});
  EXPECT_EQ(scenario.ElementCount(), 5u);  // 1 segment + 1 app + 2 ops + 1 fault
}

TEST(FuzzScenarioTest, IntegrateCapacityBytesMatchesHandComputation) {
  FuzzScenario scenario;
  scenario.horizon = 20 * kSecond;
  scenario.segments = {TraceSegment{10 * kSecond, 1000.0, 0},
                       TraceSegment{5 * kSecond, 2000.0, 0}};
  EXPECT_DOUBLE_EQ(IntegrateCapacityBytes(scenario, 10 * kSecond), 10000.0);
  EXPECT_DOUBLE_EQ(IntegrateCapacityBytes(scenario, 15 * kSecond), 20000.0);
  // Past the end of the trace the final segment persists (Modulator
  // semantics), so the bound keeps growing at the last segment's rate.
  EXPECT_DOUBLE_EQ(IntegrateCapacityBytes(scenario, 20 * kSecond), 30000.0);
}

// --- The mobility dimension (ScenarioOptions::mobility) ---

TEST(FuzzScenarioTest, MobilityOffMatchesDefaultGenerator) {
  // The flag must be invisible when off: historical seeds keep producing
  // byte-identical scenarios.
  ScenarioOptions options;
  options.mobility = false;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    EXPECT_EQ(GenerateScenario(seed, options).Describe(), GenerateScenario(seed).Describe())
        << "seed " << seed;
  }
}

TEST(FuzzScenarioTest, MobilityGenerationIsDeterministic) {
  ScenarioOptions options;
  options.mobility = true;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    EXPECT_EQ(GenerateScenario(seed, options).Describe(),
              GenerateScenario(seed, options).Describe())
        << "seed " << seed;
  }
}

TEST(FuzzScenarioTest, MobilityScenariosHonorDrainGuarantee) {
  ScenarioOptions options;
  options.mobility = true;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const FuzzScenario scenario = GenerateScenario(seed, options);
    ASSERT_FALSE(scenario.segments.empty()) << "seed " << seed;
    EXPECT_GT(scenario.segments.back().bandwidth_bps, 0.0) << "seed " << seed;
    for (const TraceSegment& segment : scenario.segments) {
      EXPECT_GT(segment.duration, 0) << "seed " << seed;
      EXPECT_GE(segment.bandwidth_bps, 0.0) << "seed " << seed;
    }
  }
}

TEST(FuzzScenarioTest, MobilityProducesShadowsTheHandRolledDrawCannot) {
  // The hand-rolled draw caps zero-bandwidth segments at 3 s; a dead zone
  // crossed at walking pace lasts far longer.  Finding one proves the
  // mobility waveforms actually reach the runner with shapes the original
  // generator never produced.
  ScenarioOptions options;
  options.mobility = true;
  bool long_shadow = false;
  for (uint64_t seed = 1; seed <= 200 && !long_shadow; ++seed) {
    for (const TraceSegment& segment : GenerateScenario(seed, options).segments) {
      if (segment.bandwidth_bps == 0.0 && segment.duration > 3 * kSecond) {
        long_shadow = true;
        break;
      }
    }
  }
  EXPECT_TRUE(long_shadow) << "no mobility scenario produced a shadow beyond the 3 s cap";
}

TEST(FuzzRunnerTest, MobilitySeedsAreViolationFree) {
  ScenarioOptions options;
  options.mobility = true;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzRunResult result = RunFuzzScenario(GenerateScenario(seed, options));
    EXPECT_TRUE(result.ok()) << "seed " << seed << "\n"
                             << FormatViolations(result.violations);
  }
}

// --- Runner determinism and clean mainline ---

TEST(FuzzRunnerTest, RunIsDeterministic) {
  const FuzzScenario scenario = GenerateScenario(7);
  const FuzzRunResult a = RunFuzzScenario(scenario);
  const FuzzRunResult b = RunFuzzScenario(scenario);
  EXPECT_EQ(a.violation_count, b.violation_count);
  EXPECT_EQ(a.upcalls_delivered, b.upcalls_delivered);
  EXPECT_EQ(a.requests_granted, b.requests_granted);
  EXPECT_EQ(a.requests_denied, b.requests_denied);
  EXPECT_EQ(a.cancels_ok, b.cancels_ok);
  EXPECT_EQ(a.tsops_issued, b.tsops_issued);
  EXPECT_DOUBLE_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_EQ(FormatViolations(a.violations), FormatViolations(b.violations));
}

TEST(FuzzRunnerTest, MainlineSeedsAreViolationFree) {
  uint64_t total_upcalls = 0;
  uint64_t total_tsops = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzRunResult result = RunFuzzScenario(GenerateScenario(seed));
    EXPECT_TRUE(result.ok()) << "seed " << seed << "\n"
                             << FormatViolations(result.violations);
    total_upcalls += result.upcalls_delivered;
    total_tsops += result.tsops_issued;
  }
  // The workload must actually exercise the stack, not vacuously pass.
  EXPECT_GT(total_upcalls, 0u);
  EXPECT_GT(total_tsops, 0u);
}

TEST(FuzzRunnerTest, SelftestMutationMatchesCompileFlag) {
  FuzzRunOptions options;
  options.selftest_mutation = true;
  uint64_t violations = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    violations += RunFuzzScenario(GenerateScenario(seed), options).violation_count;
  }
  if (kFuzzSelftestCompiled) {
    EXPECT_GT(violations, 0u) << "seeded mutation compiled in but never detected";
  } else {
    EXPECT_EQ(violations, 0u) << "mutation must be inert without ODYSSEY_FUZZ_SELFTEST";
  }
}

TEST(FuzzRunnerTest, SelftestTiebreakMatchesCompileFlag) {
  FuzzRunOptions options;
  options.selftest_tiebreak = true;
  uint64_t violations = 0;
  uint64_t tie_pairs = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const FuzzRunResult result = RunFuzzScenario(GenerateScenario(seed), options);
    violations += result.violation_count;
    tie_pairs += result.tie_pairs_audited;
  }
  EXPECT_GT(tie_pairs, 0u) << "scenarios stopped producing same-timestamp events";
  if (kFuzzSelftestCompiled) {
    EXPECT_GT(violations, 0u) << "LIFO tie mutation compiled in but never detected";
  } else {
    EXPECT_EQ(violations, 0u) << "mutation must be inert without ODYSSEY_FUZZ_SELFTEST";
  }
}

// --- Oracle unit tests against a minimal hand-driven rig ---

class OracleSetTest : public testing::Test {
 protected:
  OracleSetTest() {
    scenario_.horizon = 10 * kSecond;
    scenario_.segments = {TraceSegment{10 * kSecond, 120.0 * 1024, 10 * kMillisecond}};
    auto strategy = std::make_unique<CentralizedStrategy>(&sim_);
    strategy_ = strategy.get();
    viceroy_ = std::make_unique<Viceroy>(&sim_, std::move(strategy));
    link_ = std::make_unique<Link>(&sim_, 120.0 * 1024, 10 * kMillisecond);
    oracles_ = std::make_unique<OracleSet>(scenario_, &sim_, viceroy_.get(), strategy_,
                                           link_.get());
  }

  std::vector<std::string> OracleNames() const {
    std::vector<std::string> names;
    for (const FuzzViolation& violation : oracles_->violations()) {
      names.push_back(violation.oracle);
    }
    return names;
  }

  FuzzScenario scenario_;
  Simulation sim_;
  CentralizedStrategy* strategy_ = nullptr;
  std::unique_ptr<Viceroy> viceroy_;
  std::unique_ptr<Link> link_;
  std::unique_ptr<OracleSet> oracles_;
};

TEST_F(OracleSetTest, CleanDeliverySequenceRecordsNothing) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  oracles_->OnWindowRegistered(1, 11, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 2, 11, ResourceId::kNetworkBandwidth, 5.0, 0);
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsDuplicateDelivery) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  const std::vector<std::string> names = OracleNames();
  ASSERT_FALSE(names.empty());
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-duplicate"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsLostDelivery) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 2, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-lost"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsDeliveryInsideWindow) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 15.0, 0);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-window"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsDeliveryAfterCancel) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnWindowCancelled(10);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-after-cancel"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsUnknownRequest) {
  oracles_->OnUpcallDelivered(1, 1, 999, ResourceId::kNetworkBandwidth, 25.0, 0);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-unknown-request"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, TieBreaksInSchedulingOrderAreCleanAndCounted) {
  oracles_->OnTieBreak(100 * kMillisecond, 0, 1);
  oracles_->OnTieBreak(100 * kMillisecond, 1, 2);
  oracles_->OnTieBreak(200 * kMillisecond, 7, 12);  // gaps are fine; order is what matters
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
  EXPECT_EQ(oracles_->tie_pairs_audited(), 3u);
}

TEST_F(OracleSetTest, DetectsSameTimeOrderInversion) {
  oracles_->OnTieBreak(100 * kMillisecond, 5, 3);  // popped out of scheduling order
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "same-time-order"), names.end())
      << FormatViolations(oracles_->violations());
  EXPECT_EQ(oracles_->tie_pairs_audited(), 1u);
}

TEST_F(OracleSetTest, DetectsSameTimeSeqDuplication) {
  // seq == prev_seq means one scheduling slot fired twice — just as fatal
  // to determinism as an inversion, and the <= check catches both.
  oracles_->OnTieBreak(100 * kMillisecond, 4, 4);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "same-time-order"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsClockRegression) {
  oracles_->OnStep(100 * kMillisecond);
  oracles_->OnStep(50 * kMillisecond);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "clock-monotonicity"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, RecordingCapStoresBoundedButCountsAll) {
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    // Same seq every time: 99 duplicates after the first delivery.
    oracles_->OnUpcallDelivered(1, 1, 999, ResourceId::kNetworkBandwidth, 25.0, 0);
  }
  EXPECT_GT(oracles_->violation_count(), oracles_->violations().size());
  EXPECT_LE(oracles_->violations().size(),
            2 * OracleSet::kMaxRecordedPerOracle);  // duplicate + unknown-request
}

// --- The shared tracking window ---

// A strategy whose level is set by hand, and which refuses every bandwidth
// window while |reject| is set.  Counts its admission decisions (one per
// registration attempt that passes the level check).
class ScriptedStrategy : public ArbitrationStrategy {
 public:
  std::string name() const override { return "scripted"; }
  void AttachConnection(AppId, Endpoint*) override {}
  void DetachConnection(Endpoint*) override {}
  double AvailabilityFor(AppId, Time) const override { return level; }
  bool HasEstimate() const override { return true; }
  double TotalSupply(Time) const override { return level; }
  Duration SmoothedRttFor(AppId) const override { return 0; }
  AdmissionDecision DecideAdmission(AppId, const ResourceDescriptor&, Time) override {
    ++decisions;
    AdmissionDecision decision;
    if (reject) {
      decision.verdict = AdmissionVerdict::kRejected;
    }
    return decision;
  }

  // Moves the level and lets the viceroy re-evaluate its windows.
  void MoveTo(double to) {
    level = to;
    NotifyChanged();
  }

  double level = 100.0 * 1024;
  bool reject = false;
  int decisions = 0;
};

class WindowTrackerTest : public testing::Test {
 protected:
  WindowTrackerTest() {
    scenario_.horizon = 10 * kSecond;
    scenario_.segments = {TraceSegment{10 * kSecond, 120.0 * 1024, 10 * kMillisecond}};
    auto strategy = std::make_unique<ScriptedStrategy>();
    strategy_ = strategy.get();
    viceroy_ = std::make_unique<Viceroy>(&sim_, std::move(strategy), kMillisecond);
    link_ = std::make_unique<Link>(&sim_, 120.0 * 1024, 10 * kMillisecond);
    oracles_ =
        std::make_unique<OracleSet>(scenario_, &sim_, viceroy_.get(), nullptr, link_.get());
    viceroy_->upcalls().set_delivery_observer(
        [this](AppId app, uint64_t seq, RequestId request, ResourceId resource, double level,
               Time posted_at) {
          oracles_->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
        });
    tracker_ = std::make_unique<WindowTracker>(viceroy_.get(), oracles_.get());
    app_.id = viceroy_->RegisterApplication("tracker");
  }

  // Moves the level, then lets any upcall it causes deliver.
  void MoveAndSettle(double to) {
    strategy_->MoveTo(to);
    sim_.RunUntil(sim_.now() + kSecond);
  }

  FuzzScenario scenario_;
  Simulation sim_;
  ScriptedStrategy* strategy_ = nullptr;
  std::unique_ptr<Viceroy> viceroy_;
  std::unique_ptr<Link> link_;
  std::unique_ptr<OracleSet> oracles_;
  std::unique_ptr<WindowTracker> tracker_;
  TrackedApp app_;
};

TEST_F(WindowTrackerTest, MovedLevelRecentresOnTheReportedLevel) {
  // The caller's level is stale: the first attempt is out of bounds, and the
  // retry centres on the 100 KB/s the viceroy reported.
  tracker_->Register(&app_, 10.0 * 1024);
  ASSERT_NE(app_.request, 0u);
  EXPECT_EQ(tracker_->registered(), 1u);
  EXPECT_EQ(strategy_->decisions, 1);
  const RequestId held = app_.request;
  // Inside [70, 130] KB/s: no upcall.
  MoveAndSettle(125.0 * 1024);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 0u);
  EXPECT_EQ(app_.request, held);
  // Past 130 KB/s: the window fires.
  MoveAndSettle(135.0 * 1024);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 1u);
}

TEST_F(WindowTrackerTest, DeliveredUpcallClearsTheRegistrationAndRegistersAgain) {
  tracker_->Register(&app_, strategy_->level);
  const RequestId first = app_.request;
  ASSERT_NE(first, 0u);
  MoveAndSettle(300.0 * 1024);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 1u);
  EXPECT_NE(app_.request, 0u);
  EXPECT_NE(app_.request, first);
  EXPECT_EQ(tracker_->registered(), 2u);
  // With registration refused, the consumed window leaves the app with none.
  strategy_->reject = true;
  MoveAndSettle(30.0 * 1024);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 2u);
  EXPECT_EQ(app_.request, 0u);
  EXPECT_EQ(tracker_->registered(), 2u);
}

TEST_F(WindowTrackerTest, GivesUpAfterFourAttempts) {
  strategy_->reject = true;
  tracker_->Register(&app_, strategy_->level);
  EXPECT_EQ(strategy_->decisions, WindowTracker::kMaxAttempts);
  EXPECT_EQ(WindowTracker::kMaxAttempts, 4);
  EXPECT_EQ(app_.request, 0u);
  EXPECT_EQ(tracker_->registered(), 0u);
}

TEST_F(WindowTrackerTest, EveryRegistrationReachesTheOracle) {
  tracker_->Register(&app_, 1.0 * 1024);
  for (const double kbps : {300.0, 40.0, 90.0, 20.0, 500.0}) {
    MoveAndSettle(kbps * 1024);
  }
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 5u);
  EXPECT_EQ(tracker_->registered(), 6u);
  oracles_->Finish();
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
}

// --- Shrinker ---

TEST(ShrinkTest, MinimizesToPredicateCore) {
  const FuzzScenario scenario = GenerateScenario(11);
  // Content-based predicate: the scenario still schedules at least one
  // request op.  The 1-minimal core is one segment, one app, one op.
  const ScenarioPredicate has_request = [](const FuzzScenario& candidate) {
    for (const FuzzApp& app : candidate.apps) {
      for (const FuzzOp& op : app.ops) {
        if (op.kind == FuzzOpKind::kRequest) {
          return true;
        }
      }
    }
    return false;
  };
  ASSERT_TRUE(has_request(scenario));
  const ShrinkResult result = ShrinkWithPredicate(scenario, has_request);
  EXPECT_TRUE(has_request(result.minimized));
  EXPECT_LE(result.final_elements, result.initial_elements);
  EXPECT_LE(result.final_elements, 3u);  // segment + app + op
  EXPECT_EQ(result.final_elements, result.minimized.ElementCount());
  EXPECT_GT(result.attempts, 0);
  EXPECT_GT(result.accepted, 0);
}

TEST(ShrinkTest, ShrinkIsDeterministic) {
  const FuzzScenario scenario = GenerateScenario(11);
  const ScenarioPredicate nonempty = [](const FuzzScenario& candidate) {
    return !candidate.apps.empty();
  };
  const ShrinkResult a = ShrinkWithPredicate(scenario, nonempty);
  const ShrinkResult b = ShrinkWithPredicate(scenario, nonempty);
  EXPECT_EQ(a.minimized.Describe(), b.minimized.Describe());
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(ShrinkTest, HasViolationOfMatchesByNameAndAny) {
  FuzzRunResult result;
  result.violations.push_back(FuzzViolation{"upcall-duplicate", 0, 1, "x"});
  result.violation_count = 1;
  EXPECT_TRUE(HasViolationOf(result, "upcall-duplicate"));
  EXPECT_TRUE(HasViolationOf(result, ""));
  EXPECT_FALSE(HasViolationOf(result, "fair-share"));
  EXPECT_FALSE(HasViolationOf(FuzzRunResult{}, ""));
}

TEST(ShrinkTest, ReproSnippetIsSelfContained) {
  FuzzScenario scenario;
  scenario.seed = 77;
  scenario.horizon = 5 * kSecond;
  scenario.segments = {TraceSegment{5 * kSecond, 40.0 * 1024, 10 * kMillisecond}};
  FuzzApp app;
  app.warden = FuzzWardenKind::kSpeech;
  app.start = kSecond;
  app.ops.push_back(FuzzOp{2 * kSecond, FuzzOpKind::kRequest, 0.5, 1.5, 0, 0.25});
  scenario.apps.push_back(std::move(app));
  const std::string snippet = EmitReproSnippet(scenario, "upcall-duplicate");
  EXPECT_NE(snippet.find("TEST("), std::string::npos);
  EXPECT_NE(snippet.find("FuzzScenario"), std::string::npos);
  EXPECT_NE(snippet.find("RunFuzzScenario"), std::string::npos);
  EXPECT_NE(snippet.find("upcall-duplicate"), std::string::npos);
  EXPECT_NE(snippet.find("77"), std::string::npos);
  EXPECT_NE(snippet.find("kSpeech"), std::string::npos);
  EXPECT_NE(snippet.find("src/check/fuzz_runner.h"), std::string::npos);
  EXPECT_EQ(snippet.find("scenario.strategy"), std::string::npos);
  EXPECT_EQ(snippet.find("scenario.fleet_nodes"), std::string::npos);

  // The strategy and the fleet shape are part of the scenario: without
  // them the repro would run under odyssey, on one node.
  scenario.strategy = "laissez";
  scenario.fleet_nodes = 3;
  scenario.fleet_servers = 2;
  const std::string fleet_snippet = EmitReproSnippet(scenario, "upcall-duplicate");
  EXPECT_NE(fleet_snippet.find("scenario.strategy = \"laissez\";"), std::string::npos);
  EXPECT_NE(fleet_snippet.find("scenario.fleet_nodes = 3;"), std::string::npos);
  EXPECT_NE(fleet_snippet.find("scenario.fleet_servers = 2;"), std::string::npos);
}

TEST(ShrinkTest, CanonicalTraceIsDeterministicAndNonEmpty) {
  const FuzzScenario scenario = GenerateScenario(3);
  const std::string a = CanonicalTraceForScenario(scenario);
  const std::string b = CanonicalTraceForScenario(scenario);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // A fleet scenario traces its multi-node run, not a single-node copy.
  ScenarioOptions on;
  on.fleet = true;
  FuzzScenario fleet;
  for (uint64_t seed = 1;; ++seed) {
    ASSERT_LT(seed, 1000u);
    fleet = GenerateScenario(seed, on);
    if (fleet.fleet_nodes >= 2) {
      break;
    }
  }
  FuzzScenario single = fleet;
  single.fleet_nodes = 0;
  const std::string fleet_a = CanonicalTraceForScenario(fleet);
  const std::string fleet_b = CanonicalTraceForScenario(fleet);
  EXPECT_FALSE(fleet_a.empty());
  EXPECT_EQ(fleet_a, fleet_b);
  EXPECT_NE(fleet_a, CanonicalTraceForScenario(single));
}

}  // namespace
}  // namespace odyssey
