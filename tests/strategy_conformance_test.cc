// The strategy-conformance suite: every strategy in the builtin registry,
// through the same kit (strategy_conformance.h), under the same assertions.
//
// A strategy earns its registry entry by passing this suite unmodified.
// Audited means the built strategy exposes an audit surface
// (audit_surface() non-null), which is what arms the supply oracles:
//   * the shared workload runs clean under the full oracle set (for audited
//     strategies that includes the fair-share floor and supply audits),
//   * reruns are bit-identical (every upcall, every sampled double),
//   * the degenerate one-app/one-connection input reproduces the seed
//     centralized strategy's behavior exactly (audited strategies),
//   * no upcall is ever delivered for a cancelled or rejected window,
//   * delivered bytes never exceed the link's capacity integral.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/oracles.h"
#include "src/strategies/arbitration_strategy.h"
#include "src/strategies/strategy_registry.h"
#include "src/tracemod/replay_trace.h"
#include "tests/strategy_conformance.h"

namespace odyssey {
namespace {

using conformance::ConformanceRig;
using conformance::ConformanceWorkload;
using conformance::DegenerateWorkload;

class StrategyConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  const StrategyInfo& Info() const {
    const StrategyInfo* info = StrategyRegistry::Builtin().Find(GetParam());
    EXPECT_NE(info, nullptr);
    return *info;
  }

  bool Audited() const { return ConformanceRig(GetParam()).strategy().audit_surface() != nullptr; }
};

// Gtest test names cannot contain '-'.
std::string TestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Zoo, StrategyConformanceTest,
                         ::testing::ValuesIn(StrategyRegistry::Builtin().Names()), TestName);

TEST_P(StrategyConformanceTest, SharedWorkloadRunsCleanUnderOracles) {
  const FuzzScenario scenario = ConformanceWorkload(GetParam());
  const conformance::ConformanceRun run = conformance::Run(scenario);
  EXPECT_EQ(run.result.violation_count, 0u) << FormatViolations(run.result.violations);
  // The workload must actually exercise the strategy: windows register and
  // adaptation happens (otherwise the clean oracle run proves nothing).
  EXPECT_GT(run.result.requests_granted, 0u);
  EXPECT_GT(run.result.upcalls_delivered, 0u);
}

TEST_P(StrategyConformanceTest, ByteConservationHolds) {
  const FuzzScenario scenario = ConformanceWorkload(GetParam());
  FuzzRunOptions options;
  const FuzzRunResult result = RunFuzzScenario(scenario, options);
  // Faults only reduce delivery, so the nominal waveform's integral bounds
  // every fault schedule.
  const double bound =
      ReplayTrace(scenario.segments).IntegralBytes(scenario.horizon + options.drain_grace);
  EXPECT_LE(result.bytes_delivered, bound);
  EXPECT_GT(result.bytes_delivered, 0.0);
}

TEST_P(StrategyConformanceTest, RerunsAreBitIdentical) {
  const conformance::ConformanceRun first = conformance::Run(ConformanceWorkload(GetParam()));
  const conformance::ConformanceRun second = conformance::Run(ConformanceWorkload(GetParam()));
  ASSERT_EQ(first.log.upcalls.size(), second.log.upcalls.size());
  for (size_t i = 0; i < first.log.upcalls.size(); ++i) {
    EXPECT_EQ(first.log.upcalls[i], second.log.upcalls[i]) << "upcall " << i;
  }
  ASSERT_EQ(first.log.samples.size(), second.log.samples.size());
  for (size_t i = 0; i < first.log.samples.size(); ++i) {
    // Exact equality, not tolerance: determinism is bit-level.
    EXPECT_EQ(first.log.samples[i], second.log.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(first.result.upcalls_delivered, second.result.upcalls_delivered);
  EXPECT_EQ(first.result.requests_granted, second.result.requests_granted);
  EXPECT_EQ(first.result.admission_rejects, second.result.admission_rejects);
  EXPECT_EQ(first.result.bytes_delivered, second.result.bytes_delivered);
}

TEST_P(StrategyConformanceTest, DegenerateInputMatchesSeedStrategy) {
  if (!Audited()) {
    GTEST_SKIP() << GetParam() << " defines its own isolated estimates; equivalence to the "
                 << "centralized arbiter is not part of its contract";
  }
  const conformance::ConformanceRun seed = conformance::Run(DegenerateWorkload("odyssey"));
  const conformance::ConformanceRun zoo = conformance::Run(DegenerateWorkload(GetParam()));
  // One app, one flow, one server: the hierarchy has a single leaf and the
  // broker has nothing to arbitrate, so behavior must be bit-identical.
  EXPECT_EQ(zoo.result.admission_rejects, 0u);
  ASSERT_EQ(zoo.log.upcalls.size(), seed.log.upcalls.size());
  for (size_t i = 0; i < seed.log.upcalls.size(); ++i) {
    EXPECT_EQ(zoo.log.upcalls[i], seed.log.upcalls[i]) << "upcall " << i;
  }
  ASSERT_EQ(zoo.log.samples.size(), seed.log.samples.size());
  for (size_t i = 0; i < seed.log.samples.size(); ++i) {
    EXPECT_EQ(zoo.log.samples[i], seed.log.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(zoo.result.bytes_delivered, seed.result.bytes_delivered);
}

TEST_P(StrategyConformanceTest, FairShareFloorForAdmittedFlows) {
  // Four apps, one flow each, identical traffic: every admitted flow must
  // keep at least (roughly) its fair share of the shared estimate.
  ConformanceRig rig(GetParam());
  if (rig.strategy().audit_surface() == nullptr) {
    GTEST_SKIP() << GetParam() << " runs un-audited: no shared supply to divide";
  }
  std::vector<AppId> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(rig.AddApp("app" + std::to_string(i), "server" + std::to_string(i) + ":0"));
  }
  rig.Stimulate(120.0 * 1024.0);
  const Time now = rig.sim().now();
  const double supply = rig.strategy().TotalSupply(now);
  ASSERT_GT(supply, 0.0);
  for (const AppId app : apps) {
    EXPECT_GE(rig.strategy().AvailabilityFor(app, now), 0.99 * supply / 4.0) << "app " << app;
  }
}

TEST_P(StrategyConformanceTest, NoUpcallAfterCancel) {
  ConformanceRig rig(GetParam());
  const AppId app = rig.AddApp("app", "server:0");
  rig.Stimulate(60.0 * 1024.0);
  const RequestResult window = rig.RequestWindow(app, 0.9, 1.1);
  ASSERT_TRUE(window.ok());
  ASSERT_TRUE(rig.viceroy().Cancel(window.id).ok());
  // Push availability far outside the cancelled window; nothing may fire.
  rig.Stimulate(180.0 * 1024.0);
  EXPECT_EQ(rig.UpcallsFor(app), 0u);
}

TEST_P(StrategyConformanceTest, UpcallDeliveredWithoutCancel) {
  // Positive control for NoUpcallAfterCancel: the same stimulus with the
  // window left registered must deliver an upcall for every strategy.
  ConformanceRig rig(GetParam());
  const AppId app = rig.AddApp("app", "server:0");
  rig.Stimulate(60.0 * 1024.0);
  const RequestResult window = rig.RequestWindow(app, 0.9, 1.1);
  ASSERT_TRUE(window.ok());
  rig.Stimulate(180.0 * 1024.0);
  EXPECT_GT(rig.UpcallsFor(app), 0u);
}

TEST_P(StrategyConformanceTest, RegistryMetadataMatchesBehavior) {
  ConformanceRig rig(GetParam());
  EXPECT_EQ(rig.strategy().name(), Info().name);
  EXPECT_FALSE(Info().summary.empty());
  // The label names this strategy's scenario variants, so it must be
  // non-empty and no other entry may share it.
  ASSERT_FALSE(Info().label.empty());
  for (const std::string& other : StrategyRegistry::Builtin().Names()) {
    if (other != GetParam()) {
      EXPECT_NE(StrategyRegistry::Builtin().Find(other)->label, Info().label) << other;
    }
  }
}

TEST_P(StrategyConformanceTest, RejectRegistersNothingAndDeliversNoUpcalls) {
  ConformanceRig rig(GetParam());
  if (rig.strategy().arbitration() == nullptr) {
    GTEST_SKIP() << GetParam() << " does not admission-control";
  }
  const AppId greedy = rig.AddApp("greedy", "server:0");
  const AppId late = rig.AddApp("late", "server:1");
  rig.Stimulate(100.0 * 1024.0);
  // The first app holds two windows, committing nearly the whole estimate;
  // the second app's window cannot fit and must be rejected, registering
  // nothing.  (One fair-share window per app can never overcommit: the
  // broker only rejects when commitments accumulate.)
  const RequestResult first = rig.RequestWindow(greedy, 0.5, 1.2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.admission.verdict, AdmissionVerdict::kAdmitted);
  const RequestResult extra = rig.RequestWindow(greedy, 0.5, 1.2);
  ASSERT_TRUE(extra.ok());
  const RequestResult second = rig.RequestWindow(late, 0.9, 1.2);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.admission.verdict, AdmissionVerdict::kRejected);
  EXPECT_EQ(second.id, 0u);
  // Push the estimate around: the rejected app holds no window, so no
  // upcall may ever reach it.
  rig.Stimulate(40.0 * 1024.0);
  rig.Stimulate(180.0 * 1024.0);
  EXPECT_EQ(rig.UpcallsFor(late), 0u);
}

}  // namespace
}  // namespace odyssey
