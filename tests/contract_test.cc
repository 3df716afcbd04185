// Death tests for the contract layer (src/core/contract.h) and for the
// runtime invariants it guards: a violated contract must abort loudly with
// the condition and location, never corrupt a trial silently.

#include <limits>

#include <gtest/gtest.h>

#include "src/core/contract.h"
#include "src/core/id_map.h"
#include "src/core/request_table.h"
#include "src/estimator/ewma.h"
#include "src/estimator/sliding_max.h"
#include "src/estimator/usage_meter.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"

namespace odyssey {
namespace {

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, AssertPassesOnTrueCondition) {
  ODY_ASSERT(1 + 1 == 2);
  ODY_ASSERT(true, "with a message");
  SUCCEED();
}

TEST(ContractDeathTest, AssertAbortsOnFalseCondition) {
  EXPECT_DEATH(ODY_ASSERT(1 + 1 == 3), "ODY_ASSERT failed: 1 \\+ 1 == 3");
}

TEST(ContractDeathTest, AssertReportsMessageAndLocation) {
  EXPECT_DEATH(ODY_ASSERT(false, "the message"), "contract_test\\.cc");
  EXPECT_DEATH(ODY_ASSERT(false, "the message"), "the message");
}

TEST(ContractDeathTest, UnreachableAlwaysAborts) {
  EXPECT_DEATH(ODY_UNREACHABLE("fell off the switch"), "ODY_UNREACHABLE");
}

#ifndef NDEBUG
TEST(ContractDeathTest, DcheckAbortsInDebugBuilds) {
  EXPECT_DEATH(ODY_DCHECK(false, "debug only"), "ODY_DCHECK failed");
}
#else
TEST(ContractDeathTest, DcheckCompilesOutInReleaseBuilds) {
  int evaluations = 0;
  // The condition must parse but never run.
  ODY_DCHECK(++evaluations > 0);
  EXPECT_EQ(evaluations, 0);
}
#endif

// --- Deployed invariants ---

TEST(ContractDeathTest, EwmaRejectsAlphaOutsideUnitInterval) {
  EXPECT_DEATH(EwmaFilter(1.5), "alpha outside");
  EXPECT_DEATH(EwmaFilter(-0.1), "alpha outside");
}

TEST(ContractDeathTest, LinkRejectsNegativeFlowBytes) {
  Simulation sim(1);
  Link link(&sim, /*capacity_bps=*/1e6, /*latency=*/kMillisecond);
  EXPECT_DEATH(link.StartFlow(-1.0, [] {}), "negative bytes");
}

// The interval index orders windows by their bounds; NaN has no order.
TEST(ContractDeathTest, RequestTableRejectsNanBound) {
  RequestTable table;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ResourceDescriptor nan_lower{ResourceId::kNetworkBandwidth, nan, 1.0, nullptr};
  const ResourceDescriptor nan_upper{ResourceId::kNetworkBandwidth, 0.0, nan, nullptr};
  EXPECT_DEATH(table.Register(1, nan_lower), "bound is NaN");
  EXPECT_DEATH(table.Register(1, nan_upper), "bound is NaN");
}

// Id 0 marks an empty bucket, so it can never be stored.
TEST(ContractDeathTest, IdMapRejectsIdZero) {
  IdMap<int> map;
  EXPECT_DEATH(map[0] = 1, "never a key");
}

#ifndef NDEBUG
TEST(ContractDeathTest, SlidingMaxRejectsTimeTravel) {
  SlidingMax window(10 * kSecond);
  window.Push(5 * kSecond, 1.0);
  EXPECT_DEATH(window.Push(4 * kSecond, 2.0), "time-ordered");
}

// The pruning and the stored whole-window value both assume end times
// never go backwards.
TEST(ContractDeathTest, UsageMeterRejectsEndBeforeLastEvent) {
  UsageMeter meter(kSecond);
  meter.Record(0, 2 * kSecond, 100.0);
  meter.Record(2 * kSecond, 10.0);  // an equal end is allowed
  EXPECT_DEATH(meter.Record(kSecond, kSecond + 1, 10.0), "end-time order");
}
#endif

}  // namespace
}  // namespace odyssey
