// Cost and invalidation tests for re-evaluation: which apps one full-scan
// or exact-hint pass asks the strategy about, and in what order; what a
// congestion-manager pass costs the supply model; and that the congestion
// manager's per-server budget memo always equals a memo-free
// recomputation.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/viceroy.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_dispatcher.h"
#include "src/fleet/fleet_supply_model.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/sim/simulation.h"
#include "src/strategies/congestion_manager.h"
#include "tests/scripted_strategy.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

// Forwards to a ScriptedStrategy and counts, per app, the AvailabilityFor
// and SmoothedRttFor questions asked.  Unless |hint| is set, its hint is
// the default inexact one, so every Reevaluate is a full scan.
class CountingStrategy : public BandwidthStrategy {
 public:
  std::string name() const override { return "counting"; }
  void AttachConnection(AppId app, Endpoint* endpoint) override {
    inner.AttachConnection(app, endpoint);
  }
  void DetachConnection(Endpoint* endpoint) override { inner.DetachConnection(endpoint); }
  double AvailabilityFor(AppId app, Time now) const override {
    ++availability_asks[app];
    availability_order.push_back(app);
    return inner.AvailabilityFor(app, now);
  }
  bool HasEstimate() const override { return inner.HasEstimate(); }
  double TotalSupply(Time now) const override { return inner.TotalSupply(now); }
  Duration SmoothedRttFor(AppId app) const override {
    ++rtt_asks[app];
    return inner.SmoothedRttFor(app);
  }
  ReevalHint TakeReevalHint(Time now) override {
    return hint.has_value() ? *hint : inner.TakeReevalHint(now);
  }

  ScriptedStrategy inner;
  std::optional<ReevalHint> hint;
  mutable std::map<AppId, int> availability_asks;
  mutable std::vector<AppId> availability_order;
  mutable std::map<AppId, int> rtt_asks;
};

ResourceDescriptor Window(ResourceId resource, double lower, double upper) {
  ResourceDescriptor descriptor;
  descriptor.resource = resource;
  descriptor.lower = lower;
  descriptor.upper = upper;
  descriptor.handler = [](RequestId, ResourceId, double) {};
  return descriptor;
}

class FullScanCostTest : public ::testing::Test {
 protected:
  FullScanCostTest() {
    auto strategy = std::make_unique<CountingStrategy>();
    strategy_ = strategy.get();
    viceroy_ = std::make_unique<Viceroy>(&sim_, std::move(strategy));
    for (int i = 0; i < 8; ++i) {
      viceroy_->RegisterApplication("app" + std::to_string(i + 1));
    }
    // App 2 holds a bandwidth window, app 4 a latency window, app 6 both;
    // app 7 holds only a disk-cache window.  The rest hold none.
    Grant(2, Window(ResourceId::kNetworkBandwidth, 0.0, 1e12));
    Grant(4, Window(ResourceId::kNetworkLatency, 0.0, 1e12));
    Grant(6, Window(ResourceId::kNetworkBandwidth, 0.0, 1e12));
    Grant(6, Window(ResourceId::kNetworkLatency, 0.0, 1e12));
    Grant(7, Window(ResourceId::kDiskCacheSpace, 0.0, 1e12));
    strategy_->availability_asks.clear();
    strategy_->rtt_asks.clear();
  }

  void Grant(AppId app, ResourceDescriptor window) {
    ASSERT_TRUE(viceroy_->Request(app, std::move(window)).status_ok);
  }

  Simulation sim_;
  CountingStrategy* strategy_ = nullptr;
  std::unique_ptr<Viceroy> viceroy_;
};

TEST_F(FullScanCostTest, AsksOnlyWindowHoldersAndReadsRttOnlyForLatencyWindows) {
  viceroy_->Reevaluate();
  EXPECT_EQ(strategy_->availability_asks, (std::map<AppId, int>{{2, 1}, {4, 1}, {6, 1}}));
  EXPECT_EQ(strategy_->rtt_asks, (std::map<AppId, int>{{4, 1}, {6, 1}}));
}

TEST_F(FullScanCostTest, AConsumedWindowTakesItsAppOffTheScan) {
  strategy_->inner.level = 2e12;  // above both bandwidth windows
  viceroy_->Reevaluate();
  sim_.Run();
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 2u);
  strategy_->availability_asks.clear();
  strategy_->rtt_asks.clear();
  viceroy_->Reevaluate();
  // App 2 held only the window it was just upcalled on; app 6 keeps its
  // latency window.
  EXPECT_EQ(strategy_->availability_asks, (std::map<AppId, int>{{4, 1}, {6, 1}}));
  EXPECT_EQ(strategy_->rtt_asks, (std::map<AppId, int>{{4, 1}, {6, 1}}));
}

TEST_F(FullScanCostTest, ExactHintDirtyAppsStillGetTheirBandwidthLevel) {
  ReevalHint hint;
  hint.exact = true;
  hint.dirty = {1, 2, 3, 4, 5, 6, 7, 8};
  strategy_->hint = hint;
  viceroy_->Reevaluate();
  // The bandwidth level is read for every dirty app, window or not; the rtt
  // only where a latency window is held.
  EXPECT_EQ(strategy_->availability_asks.size(), 8u);
  EXPECT_EQ(strategy_->rtt_asks, (std::map<AppId, int>{{4, 1}, {6, 1}}));
}

// An exact pass evaluates the ascending union of the hint's dirty apps and
// the apps the idle-level probes return.  The probes list one app per
// violated window in heap order, so they may repeat an app or re-report a
// dirty one.  CountingStrategy reports no connections, so every window sits
// in class 0 and the pass probes it at level 0.0: a window whose lower
// bound is above 0.0 is probed, while the scripted level (100 KB/s) leaves
// it standing.  With 200 apps the app ids span four 64-bit words of the
// merge's bitset, so a large remainder crosses every word boundary.
class CandidateMergeTest : public ::testing::Test {
 protected:
  static constexpr AppId kApps = 200;

  CandidateMergeTest() {
    auto strategy = std::make_unique<CountingStrategy>();
    strategy_ = strategy.get();
    viceroy_ = std::make_unique<Viceroy>(&sim_, std::move(strategy));
    for (AppId app = 1; app <= kApps; ++app) {
      viceroy_->RegisterApplication("app" + std::to_string(app));
    }
  }

  void GrantProbed(AppId app) {
    ASSERT_TRUE(viceroy_->Request(app, Window(ResourceId::kNetworkBandwidth, 1.0, 1e12)).status_ok);
  }

  // The apps one exact pass with |dirty| asks about, in the order asked.
  std::vector<AppId> PassWith(std::vector<AppId> dirty) {
    ReevalHint hint;
    hint.exact = true;
    hint.dirty = std::move(dirty);
    strategy_->hint = std::move(hint);
    strategy_->availability_order.clear();
    viceroy_->Reevaluate();
    sim_.Run();
    EXPECT_EQ(viceroy_->upcalls().delivered_count(), 0u);  // every window stands
    return strategy_->availability_order;
  }

  Simulation sim_;
  CountingStrategy* strategy_ = nullptr;
  std::unique_ptr<Viceroy> viceroy_;
};

TEST_F(CandidateMergeTest, ProbesOfDirtyAppsOnlyAddNothing) {
  GrantProbed(5);
  GrantProbed(3);
  EXPECT_EQ(PassWith({3, 5, 9}), (std::vector<AppId>{3, 5, 9}));
}

TEST_F(CandidateMergeTest, InterleavedProbedAppsMergeInOrder) {
  GrantProbed(12);
  GrantProbed(3);
  GrantProbed(5);
  EXPECT_EQ(PassWith({3, 9}), (std::vector<AppId>{3, 5, 9, 12}));
  EXPECT_EQ(PassWith({1, 13}), (std::vector<AppId>{1, 3, 5, 12, 13}));
}

TEST_F(CandidateMergeTest, AnAppProbedTwiceIsAskedOnce) {
  GrantProbed(7);
  GrantProbed(2);
  GrantProbed(7);
  EXPECT_EQ(PassWith({4}), (std::vector<AppId>{2, 4, 7}));
}

TEST_F(CandidateMergeTest, ALargeRemainderIsSweptInOrder) {
  std::vector<AppId> probed;  // apps not divisible by 3, and 199 twice
  for (AppId app = kApps; app >= 1; --app) {
    if (app % 3 != 0) {
      GrantProbed(app);
      probed.push_back(app);
    }
  }
  GrantProbed(199);
  std::sort(probed.begin(), probed.end());
  std::vector<AppId> dirty;  // multiples of 4: a third are also probed
  for (AppId app = 4; app <= kApps; app += 4) {
    dirty.push_back(app);
  }
  std::vector<AppId> want;
  std::set_union(probed.begin(), probed.end(), dirty.begin(), dirty.end(),
                 std::back_inserter(want));
  EXPECT_EQ(PassWith(dirty), want);
  // The sweep leaves its bitset clear: a pass with no dirty apps asks
  // about the probed apps alone.
  EXPECT_EQ(PassWith({}), probed);
  EXPECT_EQ(PassWith(dirty), want);
}

ThroughputObservation Throughput(Time at, double bytes, Duration elapsed) {
  ThroughputObservation obs;
  obs.at = at;
  obs.window_bytes = bytes;
  obs.elapsed = elapsed;
  return obs;
}

// The share a memo-free congestion manager reports for |connection|: its
// server's flows' model availabilities summed in ascending order, split
// equally.
double Recomputed(const CongestionManagerStrategy& strategy, ConnectionId connection,
                  Time now) {
  const std::vector<ConnectionId> flows = strategy.FlowsOf(strategy.ServerOf(connection));
  double budget = 0.0;
  for (const ConnectionId flow : flows) {
    budget += strategy.supply_model().AvailabilityFor(flow, now);
  }
  return budget / static_cast<double>(flows.size());
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

class CongestionManagerMemoTest : public ::testing::Test {
 protected:
  CongestionManagerMemoTest() : link_(&sim_, 120.0 * kKb, 10500) {
    for (int i = 0; i < 6; ++i) {
      endpoints_.push_back(std::make_unique<Endpoint>(&sim_, &link_, "video:" + std::to_string(i)));
    }
  }

  // Checks every attached video flow against the recomputation at |now|
  // and returns flow |probe|'s share.
  double CheckAll(const CongestionManagerStrategy& strategy, size_t probe, Time now) {
    for (const ConnectionId flow : strategy.FlowsOf("video")) {
      EXPECT_EQ(Bits(strategy.ConnectionAvailability(flow, now)),
                Bits(Recomputed(strategy, flow, now)))
          << "flow " << flow << " at " << now;
    }
    return strategy.ConnectionAvailability(endpoints_[probe]->id(), now);
  }

  Simulation sim_;
  Link link_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;  // outlive the strategies
};

TEST_F(CongestionManagerMemoTest, MemoMatchesRecomputationAcrossSameInstantChanges) {
  CongestionManagerStrategy strategy(&sim_);
  for (size_t i = 0; i < 4; ++i) {
    strategy.AttachConnection(static_cast<AppId>(i + 1), endpoints_[i].get());
  }
  strategy.OnThroughput(endpoints_[0]->id(), Throughput(kSecond, 64.0 * kKb, 500 * kMillisecond));
  strategy.OnThroughput(endpoints_[1]->id(), Throughput(kSecond, 16.0 * kKb, 500 * kMillisecond));

  // Every change below lands at |now|, after the memo holds |now|'s budget.
  const Time now = 4 * kSecond;
  const double initial = CheckAll(strategy, 0, now);
  ASSERT_GT(initial, 0.0);

  // A failure past the supply window empties the envelope.
  FailureObservation failure;
  failure.at = now;
  failure.attempts = 1;
  strategy.OnFailure(endpoints_[1]->id(), failure);
  const double after_failure = CheckAll(strategy, 0, now);
  EXPECT_NE(Bits(after_failure), Bits(initial));

  strategy.OnThroughput(endpoints_[2]->id(), Throughput(now, 48.0 * kKb, 250 * kMillisecond));
  const double after_throughput = CheckAll(strategy, 0, now);
  EXPECT_NE(Bits(after_throughput), Bits(after_failure));

  strategy.AttachConnection(5, endpoints_[4].get());
  const double after_attach = CheckAll(strategy, 0, now);
  EXPECT_NE(Bits(after_attach), Bits(after_throughput));

  strategy.DetachConnection(endpoints_[2].get());
  const double after_detach = CheckAll(strategy, 0, now);
  EXPECT_NE(Bits(after_detach), Bits(after_attach));
}

TEST_F(CongestionManagerMemoTest, FleetMemoSeesAReportAcceptedAtTheQueryInstant) {
  FleetDispatcher dispatcher(&sim_);
  FleetAggregator aggregator(&sim_, &dispatcher, /*self=*/0, /*seed=*/7);
  auto model = std::make_unique<FleetSupplyModel>(&aggregator);
  FleetSupplyModel* fleet = model.get();
  CongestionManagerStrategy strategy(&sim_, std::move(model));
  for (size_t i = 0; i < 3; ++i) {
    strategy.AttachConnection(static_cast<AppId>(i + 1), endpoints_[i].get());
    fleet->MapConnection(endpoints_[i]->id(), 0);
  }
  const Time now = 2 * kSecond;
  strategy.OnThroughput(endpoints_[0]->id(), Throughput(now, 96.0 * kKb, kSecond));
  const double initial = CheckAll(strategy, 0, now);

  // Two busy peers report a small merged supply for the same server at
  // |now|: the fleet cap pulls the budget down at the same instant.
  const uint64_t generation = fleet->generation();
  for (const FleetNodeId peer : {1u, 2u}) {
    FleetMessage report;
    report.origin = peer;
    report.server = 0;
    report.seq = 1;
    report.sent_at = now;
    report.supply_bps = 40.0 * kKb;
    report.active = 1;
    aggregator.OnMessage(report);
  }
  EXPECT_EQ(fleet->generation(), generation + 2);
  const double after_report = CheckAll(strategy, 0, now);
  EXPECT_LT(after_report, initial);

  // A stale duplicate is not accepted and moves nothing.
  FleetMessage duplicate;
  duplicate.origin = 1;
  duplicate.seq = 1;
  duplicate.sent_at = now;
  aggregator.OnMessage(duplicate);
  EXPECT_EQ(fleet->generation(), generation + 2);
  EXPECT_EQ(Bits(CheckAll(strategy, 0, now)), Bits(after_report));
}

TEST(CongestionManagerCostTest, FullScanOverOneServerCostsLinearScanOps) {
  constexpr int kApps = 32;
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  std::vector<std::unique_ptr<Endpoint>> endpoints;  // outlive the viceroy
  for (int i = 0; i < kApps; ++i) {
    endpoints.push_back(std::make_unique<Endpoint>(&sim, &link, "video:" + std::to_string(i)));
  }
  auto owned = std::make_unique<CongestionManagerStrategy>(&sim);
  CongestionManagerStrategy* strategy = owned.get();
  Viceroy viceroy(&sim, std::move(owned));
  for (int i = 0; i < kApps; ++i) {
    viceroy.AttachConnection(viceroy.RegisterApplication("app" + std::to_string(i)),
                             endpoints[i].get());
  }
  sim.RunUntil(kSecond);
  for (int i = 0; i < kApps; ++i) {
    strategy->OnThroughput(endpoints[i]->id(), Throughput(kSecond, 8.0 * kKb, kSecond));
    const AppId app = static_cast<AppId>(i + 1);
    ASSERT_TRUE(viceroy.Request(app, Window(ResourceId::kNetworkBandwidth, 0.0, 1e12)).status_ok);
  }
  sim.RunUntil(kSecond + kMillisecond);

  // One pass asks about every app's one flow, but the server's budget is
  // summed once: one op per flow and one live-set scan.  The inexact hint
  // is drained without being built, so it spends no op on an idle level.
  // Summing per app would cost kApps x kApps.
  const uint64_t before = strategy->supply_model().scan_ops();
  viceroy.Reevaluate();
  const uint64_t ops = strategy->supply_model().scan_ops() - before;
  EXPECT_GE(ops, static_cast<uint64_t>(kApps));
  EXPECT_LE(ops, static_cast<uint64_t>(2 * kApps));
}

}  // namespace
}  // namespace odyssey
