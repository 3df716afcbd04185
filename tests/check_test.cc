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

#include "src/apps/tracking_window.h"
#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/check/shrink.h"
#include "src/core/resource.h"
#include "src/core/upcall.h"
#include "src/core/viceroy.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/centralized.h"
#include "tests/scripted_strategy.h"

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

// The oracle of each recorded violation, in order.
std::vector<std::string> NamesOf(const OracleSet& oracles) {
  std::vector<std::string> names;
  for (const FuzzViolation& violation : oracles.violations()) {
    names.push_back(violation.oracle);
  }
  return names;
}

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

  std::vector<std::string> OracleNames() const { return NamesOf(*oracles_); }

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

TEST_F(OracleSetTest, SecondDeliveryForConsumedRequestIsUnknown) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
  // In sequence, so only the ledger can object: the first delivery
  // consumed request 10.
  oracles_->OnUpcallDelivered(1, 2, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  EXPECT_EQ(OracleNames(), std::vector<std::string>{"upcall-unknown-request"})
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsDeliveryToTheWrongApp) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(2, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  ASSERT_EQ(OracleNames(), std::vector<std::string>{"upcall-unknown-request"})
      << FormatViolations(oracles_->violations());
  const std::string& detail = oracles_->violations()[0].detail;
  EXPECT_NE(detail.find("registered by app 1 but delivered to app 2"), std::string::npos);
}

TEST_F(OracleSetTest, CancelledRequestStaysFlaggedThroughLedgerGrowth) {
  oracles_->OnWindowRegistered(1, 1, 10.0, 20.0);
  oracles_->OnWindowCancelled(1);
  // Enough later registrations to grow the ledger several times over.
  for (RequestId id = 2; id <= 10001; ++id) {
    oracles_->OnWindowRegistered(2, id, 10.0, 20.0);
  }
  oracles_->OnUpcallDelivered(1, 1, 1, ResourceId::kNetworkBandwidth, 25.0, 0);
  EXPECT_EQ(OracleNames(), std::vector<std::string>{"upcall-after-cancel"})
      << FormatViolations(oracles_->violations());
}

// The ledger never holds more than two entries here, so its ring stays at
// its first size and 5,000 newer ids pass the cancelled one hundreds of
// times over: it moves out to the side map, and the verdicts must not move.
TEST_F(OracleSetTest, CancelledAndConsumedVerdictsSurviveIdsChurningPast) {
  oracles_->OnWindowRegistered(1, 1, 10.0, 20.0);
  oracles_->OnWindowCancelled(1);
  uint64_t seq = 0;
  for (RequestId id = 2; id <= 5001; ++id) {
    oracles_->OnWindowRegistered(2, id, 10.0, 20.0);
    oracles_->OnUpcallDelivered(2, ++seq, id, ResourceId::kNetworkBandwidth, 25.0, 0);
  }
  ASSERT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
  oracles_->OnUpcallDelivered(1, 1, 1, ResourceId::kNetworkBandwidth, 25.0, 0);
  oracles_->OnUpcallDelivered(2, ++seq, 3000, ResourceId::kNetworkBandwidth, 25.0, 0);
  EXPECT_EQ(OracleNames(),
            (std::vector<std::string>{"upcall-after-cancel", "upcall-unknown-request"}))
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

// --- Arming: the one way a run attaches its oracles ---

TEST_F(OracleSetTest, FinishDisarmsEveryHook) {
  oracles_->Arm(/*clock=*/true);
  UpcallDispatcher& upcalls = viceroy_->upcalls();
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  upcalls.Post(1, 10, ResourceId::kNetworkBandwidth, 25.0, nullptr);
  sim_.Post(kMillisecond, [] {});
  sim_.Post(kMillisecond, [] {});
  sim_.RunUntil(kSecond);
  // Armed: the delivery is audited clean and the same-time pair counted.
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
  EXPECT_EQ(oracles_->tie_pairs_audited(), 1u);

  oracles_->Finish();
  // Were anything still attached, the unregistered delivery would be a
  // violation and the same-time pair would be counted.
  upcalls.Post(1, 999, ResourceId::kNetworkBandwidth, 25.0, nullptr);
  sim_.Post(kMillisecond, [] {});
  sim_.Post(kMillisecond, [] {});
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(upcalls.delivered_count(), 2u);
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
  EXPECT_EQ(oracles_->tie_pairs_audited(), 1u);
}

TEST_F(OracleSetTest, TapSeesEachDeliveryAfterTheOracle) {
  // Deliveries of unregistered requests: the oracle records one violation
  // per delivery, so the count the tap reads says whether it ran first.
  std::vector<uint64_t> seen_seqs;
  std::vector<uint64_t> violations_at_tap;
  const OracleSet* oracles = oracles_.get();
  oracles_->Arm(/*clock=*/false, [&](AppId app, uint64_t seq, RequestId request, ResourceId,
                                     double level, Time) {
    EXPECT_EQ(app, 1u);
    EXPECT_EQ(request, 900 + seq);
    EXPECT_DOUBLE_EQ(level, 25.0);
    seen_seqs.push_back(seq);
    violations_at_tap.push_back(oracles->violation_count());
  });
  viceroy_->upcalls().Post(1, 901, ResourceId::kNetworkBandwidth, 25.0, nullptr);
  viceroy_->upcalls().Post(1, 902, ResourceId::kNetworkBandwidth, 25.0, nullptr);
  sim_.RunUntil(kSecond);
  EXPECT_EQ(seen_seqs, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(violations_at_tap, (std::vector<uint64_t>{1, 2}));
  oracles_->Finish();
}

TEST(ScheduleAuditsTest, AuditsEveryTickThroughUntilThenOneNoOpTick) {
  // |until| on a tick: that tick still audits.  Off a tick: the last audit
  // is the tick before it.  Either way exactly one trailing tick fires and
  // audits nothing, and it is an event like any other.
  for (const Time until : {400 * kMillisecond, 450 * kMillisecond}) {
    Simulation sim;
    std::vector<Time> audited;
    ScheduleAudits(&sim, until, [&sim, &audited] { audited.push_back(sim.now()); });
    sim.Run();
    EXPECT_EQ(audited, (std::vector<Time>{100 * kMillisecond, 200 * kMillisecond,
                                          300 * kMillisecond, 400 * kMillisecond}))
        << "until " << until;
    EXPECT_EQ(sim.events_processed(), 5u) << "until " << until;
    EXPECT_EQ(sim.now(), 500 * kMillisecond) << "until " << until;
  }
}

// --- The window feed: an armed oracle learns windows from the viceroy ---

// A real Viceroy with a hand-set level and an armed oracle set: every
// window below is granted or cancelled through the viceroy's own calls, and
// the ledger hears of it only through the window observer Arm() installs.
class ArmedViceroyTest : public testing::Test {
 protected:
  ArmedViceroyTest() {
    scenario_.horizon = 10 * kSecond;
    scenario_.segments = {TraceSegment{10 * kSecond, 120.0 * 1024, 10 * kMillisecond}};
    auto strategy = std::make_unique<ScriptedStrategy>();
    strategy_ = strategy.get();
    viceroy_ = std::make_unique<Viceroy>(&sim_, std::move(strategy), kMillisecond);
    link_ = std::make_unique<Link>(&sim_, 120.0 * 1024, 10 * kMillisecond);
    oracles_ =
        std::make_unique<OracleSet>(scenario_, &sim_, viceroy_.get(), nullptr, link_.get());
    app_ = viceroy_->RegisterApplication("armed");
  }

  // A [0.5x, 2x] window around the current level; must be granted.
  RequestId Grant() {
    ResourceDescriptor descriptor;
    descriptor.resource = ResourceId::kNetworkBandwidth;
    descriptor.lower = 0.5 * strategy_->level;
    descriptor.upper = 2.0 * strategy_->level;
    descriptor.handler = [](RequestId, ResourceId, double) {};
    const RequestResult result = viceroy_->Request(app_, descriptor);
    EXPECT_TRUE(result.ok());
    return result.id;
  }

  // Moves the level, then lets any upcall it causes deliver.
  void MoveAndSettle(double to) {
    strategy_->MoveTo(to);
    sim_.RunUntil(sim_.now() + kSecond);
  }

  std::vector<std::string> OracleNames() const { return NamesOf(*oracles_); }

  FuzzScenario scenario_;
  Simulation sim_;
  ScriptedStrategy* strategy_ = nullptr;
  std::unique_ptr<Viceroy> viceroy_;
  std::unique_ptr<Link> link_;
  std::unique_ptr<OracleSet> oracles_;
  AppId app_ = 0;
};

TEST_F(ArmedViceroyTest, GrantedThenViolatedWindowDeliversClean) {
  oracles_->Arm(/*clock=*/false);
  Grant();
  MoveAndSettle(4.0 * strategy_->level);
  oracles_->Finish();
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 1u);
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
}

TEST_F(ArmedViceroyTest, DeliveryAfterOkCancelIsUpcallAfterCancel) {
  oracles_->Arm(/*clock=*/false);
  const RequestId id = Grant();
  ASSERT_TRUE(viceroy_->Cancel(id).ok());
  // The viceroy never posts for a cancelled window; post one by hand, as a
  // dispatcher bug would.
  viceroy_->upcalls().Post(app_, id, ResourceId::kNetworkBandwidth, 0.0, nullptr);
  sim_.RunUntil(kSecond);
  oracles_->Finish();
  EXPECT_EQ(OracleNames(), std::vector<std::string>{"upcall-after-cancel"})
      << FormatViolations(oracles_->violations());
}

TEST_F(ArmedViceroyTest, GrantAfterFinishNeverReachesTheLedger) {
  oracles_->Arm(/*clock=*/false);
  Grant();
  oracles_->Finish();
  Grant();
  // Re-armed for the deliveries only: both windows fire, and the one
  // granted while disarmed is unknown to the ledger.
  oracles_->Arm(/*clock=*/false);
  MoveAndSettle(4.0 * strategy_->level);
  oracles_->Finish();
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 2u);
  EXPECT_EQ(OracleNames(), std::vector<std::string>{"upcall-unknown-request"})
      << FormatViolations(oracles_->violations());
}

TEST_F(ArmedViceroyTest, ReArmRecordsEachGrantOnce) {
  // As fleet_drive does: arm with the clock, then again with a tap.
  oracles_->Arm(/*clock=*/true);
  uint64_t tapped = 0;
  oracles_->Arm(/*clock=*/false, [&tapped](AppId, uint64_t, RequestId, ResourceId, double,
                                          Time) { ++tapped; });
  Grant();
  Grant();
  MoveAndSettle(4.0 * strategy_->level);
  EXPECT_EQ(tapped, 2u);
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
  // One Finish() detaches the one window hook both Arm() calls installed.
  oracles_->Finish();
  const RequestId late = Grant();
  oracles_->OnUpcallDelivered(app_, 3, late, ResourceId::kNetworkBandwidth, 0.0, 0);
  EXPECT_EQ(OracleNames(), std::vector<std::string>{"upcall-unknown-request"})
      << FormatViolations(oracles_->violations());
}

// The tracking window (src/apps/tracking_window.h) reports nothing itself;
// its registrations reach an armed oracle through the viceroy.
using WindowTrackerTest = ArmedViceroyTest;

TEST_F(WindowTrackerTest, EveryRegistrationReachesTheOracle) {
  oracles_->Arm(/*clock=*/false);
  WindowTracker tracker(viceroy_.get());
  TrackedApp app{.id = app_};
  tracker.Register(&app, 1.0 * 1024);
  for (const double kbps : {300.0, 40.0, 90.0, 20.0, 500.0}) {
    MoveAndSettle(kbps * 1024);
  }
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 5u);
  EXPECT_EQ(tracker.registered(), 6u);
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
