// Unit tests for the bandwidth-management strategy zoo: the paper's three
// policies (§6.2.3), the congestion manager, the admission broker, and the
// registry that names them all.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/rpc/endpoint.h"
#include "src/sim/simulation.h"
#include "src/strategies/admission_broker.h"
#include "src/strategies/blind_optimism.h"
#include "src/strategies/centralized.h"
#include "src/strategies/congestion_manager.h"
#include "src/strategies/laissez_faire.h"
#include "src/strategies/strategy_registry.h"
#include "src/tracemod/waveforms.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

class StrategyFixture : public ::testing::Test {
 protected:
  StrategyFixture() : link_(&sim_, 120.0 * kKb, 10500) {}

  // Runs a bulk fetch on |endpoint| and drains the simulation.
  void FetchAndRun(Endpoint& endpoint, double bytes) {
    endpoint.Fetch(bytes, 0, Endpoint::StatusDone());
    sim_.Run();
  }

  Simulation sim_;
  Link link_;
};

TEST_F(StrategyFixture, CentralizedEstimatesSupplyFromTraffic) {
  Endpoint endpoint(&sim_, &link_, "server");
  CentralizedStrategy strategy(&sim_);
  strategy.AttachConnection(1, &endpoint);
  FetchAndRun(endpoint, 512.0 * kKb);
  EXPECT_NEAR(strategy.TotalSupply(sim_.now()), 120.0 * kKb, 12.0 * kKb);
  EXPECT_NEAR(strategy.AvailabilityFor(1, sim_.now()), 120.0 * kKb, 12.0 * kKb);
  EXPECT_GT(strategy.SmoothedRttFor(1), 0);
}

TEST_F(StrategyFixture, CentralizedChangeCallbackFires) {
  Endpoint endpoint(&sim_, &link_, "server");
  CentralizedStrategy strategy(&sim_);
  strategy.AttachConnection(1, &endpoint);
  int changes = 0;
  strategy.SetChangeCallback([&] { ++changes; });
  FetchAndRun(endpoint, 128.0 * kKb);
  EXPECT_GT(changes, 0);
}

TEST_F(StrategyFixture, CentralizedDetachStopsAccounting) {
  Endpoint endpoint(&sim_, &link_, "server");
  CentralizedStrategy strategy(&sim_);
  strategy.AttachConnection(1, &endpoint);
  strategy.DetachConnection(&endpoint);
  FetchAndRun(endpoint, 128.0 * kKb);
  EXPECT_DOUBLE_EQ(strategy.TotalSupply(sim_.now()), 0.0);
}

TEST_F(StrategyFixture, CentralizedUnknownAppZero) {
  CentralizedStrategy strategy(&sim_);
  EXPECT_DOUBLE_EQ(strategy.AvailabilityFor(42, 0), 0.0);
  EXPECT_EQ(strategy.SmoothedRttFor(42), 0);
}

TEST_F(StrategyFixture, LaissezFaireSeesOnlyOwnLog) {
  Endpoint a(&sim_, &link_, "a");
  Endpoint b(&sim_, &link_, "b");
  LaissezFaireStrategy strategy;
  strategy.AttachConnection(1, &a);
  strategy.AttachConnection(2, &b);
  FetchAndRun(a, 512.0 * kKb);
  // App 1 estimated from its own traffic; app 2 has seen nothing.
  EXPECT_GT(strategy.AvailabilityFor(1, sim_.now()), 100.0 * kKb);
  EXPECT_DOUBLE_EQ(strategy.AvailabilityFor(2, sim_.now()), 0.0);
}

TEST_F(StrategyFixture, LaissezFaireOverestimatesUnderIntermittentContention) {
  // Both connections observe the full link rate whenever the other is idle:
  // each app concludes it has ~120 KB/s even though sustained concurrent use
  // would yield 60 KB/s each.  This is the §6.2.3 pathology.
  Endpoint a(&sim_, &link_, "a");
  Endpoint b(&sim_, &link_, "b");
  LaissezFaireStrategy strategy;
  strategy.AttachConnection(1, &a);
  strategy.AttachConnection(2, &b);
  // Alternate bursts with idle gaps.
  a.Fetch(256.0 * kKb, 0, Endpoint::StatusDone());
  sim_.Run();
  b.Fetch(256.0 * kKb, 0, Endpoint::StatusDone());
  sim_.Run();
  const double sum = strategy.AvailabilityFor(1, sim_.now()) +
                     strategy.AvailabilityFor(2, sim_.now());
  EXPECT_GT(sum, 1.5 * 120.0 * kKb);  // the two apps believe in >1.5 links
}

TEST_F(StrategyFixture, BlindOptimismTracksTransitionsInstantly) {
  Modulator modulator(&sim_, &link_);
  BlindOptimismStrategy strategy(&modulator);
  modulator.Replay(MakeStepUp());
  EXPECT_DOUBLE_EQ(strategy.AvailabilityFor(1, sim_.now()), kLowBandwidth);
  sim_.RunUntil(31 * kSecond);
  EXPECT_DOUBLE_EQ(strategy.AvailabilityFor(1, sim_.now()), kHighBandwidth);
}

TEST_F(StrategyFixture, BlindOptimismIgnoresCompetition) {
  Modulator modulator(&sim_, &link_);
  BlindOptimismStrategy strategy(&modulator);
  modulator.Replay(MakeConstant(120.0 * kKb, kMinute));
  // Every app is told the full theoretical bandwidth.
  EXPECT_DOUBLE_EQ(strategy.AvailabilityFor(1, 0), 120.0 * kKb);
  EXPECT_DOUBLE_EQ(strategy.AvailabilityFor(2, 0), 120.0 * kKb);
  EXPECT_DOUBLE_EQ(strategy.TotalSupply(0), 120.0 * kKb);
}

TEST_F(StrategyFixture, BlindOptimismStillEstimatesRtt) {
  Modulator modulator(&sim_, &link_);
  Endpoint endpoint(&sim_, &link_, "server");
  BlindOptimismStrategy strategy(&modulator);
  modulator.Replay(MakeConstant(120.0 * kKb, kMinute));
  strategy.AttachConnection(1, &endpoint);
  endpoint.Ping(Endpoint::StatusDone());
  sim_.Run();
  EXPECT_GT(strategy.SmoothedRttFor(1), 0);
}

TEST_F(StrategyFixture, BlindOptimismChangeCallbackAtTransition) {
  Modulator modulator(&sim_, &link_);
  BlindOptimismStrategy strategy(&modulator);
  int changes = 0;
  strategy.SetChangeCallback([&] { ++changes; });
  modulator.Replay(MakeStepUp());
  sim_.RunUntil(kWaveformLength);
  EXPECT_EQ(changes, 2);  // initial segment + the step
}

TEST_F(StrategyFixture, StrategiesHaveDistinctNames) {
  Modulator modulator(&sim_, &link_);
  CentralizedStrategy centralized(&sim_);
  LaissezFaireStrategy laissez;
  BlindOptimismStrategy blind(&modulator);
  EXPECT_EQ(centralized.name(), "odyssey");
  EXPECT_EQ(laissez.name(), "laissez-faire");
  EXPECT_EQ(blind.name(), "blind-optimism");
}

TEST(CongestionManagerTest, ServerKeyIsServicePrefix) {
  EXPECT_EQ(CongestionManagerStrategy::ServerKeyOf("video:bigbuck"), "video");
  EXPECT_EQ(CongestionManagerStrategy::ServerKeyOf("video:sintel"), "video");
  EXPECT_EQ(CongestionManagerStrategy::ServerKeyOf("plain"), "plain");
  EXPECT_EQ(CongestionManagerStrategy::ServerKeyOf(":anonymous"), "");
}

TEST_F(StrategyFixture, CongestionManagerTracksFlowsAcrossAttachDetach) {
  Endpoint a(&sim_, &link_, "video:a");
  Endpoint b(&sim_, &link_, "video:b");
  Endpoint c(&sim_, &link_, "web:c");
  CongestionManagerStrategy strategy(&sim_);
  strategy.AttachConnection(1, &a);
  strategy.AttachConnection(2, &b);
  strategy.AttachConnection(3, &c);
  EXPECT_EQ(strategy.ServerOf(a.id()), "video");
  EXPECT_EQ(strategy.ServerOf(c.id()), "web");
  EXPECT_EQ(strategy.FlowsOf("video"), (std::vector<ConnectionId>{a.id(), b.id()}));
  EXPECT_EQ(strategy.FlowsOf("web"), std::vector<ConnectionId>{c.id()});
  strategy.DetachConnection(&a);
  EXPECT_EQ(strategy.ServerOf(a.id()), "");
  EXPECT_EQ(strategy.FlowsOf("video"), std::vector<ConnectionId>{b.id()});
  strategy.DetachConnection(&b);
  EXPECT_TRUE(strategy.FlowsOf("video").empty());
}

TEST_F(StrategyFixture, CongestionManagerPoolsFlowsSharingAServer) {
  // Two apps, one flow each, both to the "video" server.  Only the first
  // generates traffic, but shared congestion state means the server budget
  // is split equally: both flows report the identical share.
  Endpoint a(&sim_, &link_, "video:a");
  Endpoint b(&sim_, &link_, "video:b");
  CongestionManagerStrategy strategy(&sim_);
  strategy.AttachConnection(1, &a);
  strategy.AttachConnection(2, &b);
  FetchAndRun(a, 512.0 * kKb);
  const Time now = sim_.now();
  EXPECT_GT(strategy.ConnectionAvailability(a.id(), now), 0.0);
  EXPECT_DOUBLE_EQ(strategy.ConnectionAvailability(a.id(), now),
                   strategy.ConnectionAvailability(b.id(), now));
  EXPECT_DOUBLE_EQ(strategy.AvailabilityFor(1, now), strategy.AvailabilityFor(2, now));
}

TEST_F(StrategyFixture, CongestionManagerAppAvailabilitySumsItsFlows) {
  // One app with flows to two distinct servers: the hierarchy's app level
  // is the sum of its flows' shares.
  Endpoint a(&sim_, &link_, "video:a");
  Endpoint b(&sim_, &link_, "web:b");
  CongestionManagerStrategy strategy(&sim_);
  strategy.AttachConnection(1, &a);
  strategy.AttachConnection(1, &b);
  FetchAndRun(a, 256.0 * kKb);
  const Time now = sim_.now();
  EXPECT_DOUBLE_EQ(strategy.AvailabilityFor(1, now),
                   strategy.ConnectionAvailability(a.id(), now) +
                       strategy.ConnectionAvailability(b.id(), now));
}

TEST_F(StrategyFixture, CongestionManagerHintsAreInexact) {
  // Redistribution breaks the incremental idle-level bookkeeping, so the
  // viceroy must be told to full-scan.
  Endpoint a(&sim_, &link_, "video:a");
  CongestionManagerStrategy strategy(&sim_);
  strategy.AttachConnection(1, &a);
  FetchAndRun(a, 128.0 * kKb);
  const ReevalHint hint = strategy.TakeReevalHint(sim_.now());
  EXPECT_FALSE(hint.exact);
  EXPECT_TRUE(hint.idle_levels.empty());
}

ResourceDescriptor Window(double lower, double upper) {
  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kNetworkBandwidth;
  descriptor.lower = lower;
  descriptor.upper = upper;
  descriptor.handler = [](RequestId, ResourceId, double) {};
  return descriptor;
}

TEST_F(StrategyFixture, AdmissionBrokerAdmitsOptimisticallyWithoutEstimate) {
  AdmissionBrokerStrategy broker(&sim_, std::make_unique<CentralizedStrategy>(&sim_));
  EXPECT_FALSE(broker.HasEstimate());
  const AdmissionDecision decision = broker.DecideAdmission(1, Window(64.0 * kKb, 128.0 * kKb), 0);
  EXPECT_EQ(decision.verdict, AdmissionVerdict::kAdmitted);
  EXPECT_EQ(decision.reason_code, AdmissionBrokerStrategy::kReasonNoEstimate);
  ASSERT_EQ(broker.admission_log().size(), 1u);
  EXPECT_EQ(broker.admission_log()[0].app, 1u);
}

TEST_F(StrategyFixture, AdmissionBrokerLifecycleReleasesCommitments) {
  AdmissionBrokerStrategy broker(&sim_, std::make_unique<CentralizedStrategy>(&sim_));
  const ResourceDescriptor window = Window(32.0 * kKb, 96.0 * kKb);
  ASSERT_EQ(broker.DecideAdmission(1, window, 0).verdict, AdmissionVerdict::kAdmitted);
  broker.OnWindowRegistered(1, 5, window);
  EXPECT_DOUBLE_EQ(broker.CommittedTotal(), 32.0 * kKb);
  // The registration id lands on the pending admit event.
  EXPECT_EQ(broker.admission_log()[0].request, 5u);
  broker.OnWindowCancelled(5);
  EXPECT_DOUBLE_EQ(broker.CommittedTotal(), 0.0);
  // Consume releases just like cancel.
  ASSERT_EQ(broker.DecideAdmission(1, window, 0).verdict, AdmissionVerdict::kAdmitted);
  broker.OnWindowRegistered(1, 6, window);
  broker.OnWindowConsumed(6);
  EXPECT_DOUBLE_EQ(broker.CommittedTotal(), 0.0);
}

TEST_F(StrategyFixture, AdmissionBrokerDelegatesEstimationToInner) {
  Endpoint endpoint(&sim_, &link_, "server");
  AdmissionBrokerStrategy broker(&sim_, std::make_unique<CentralizedStrategy>(&sim_));
  broker.AttachConnection(1, &endpoint);
  FetchAndRun(endpoint, 256.0 * kKb);
  EXPECT_EQ(broker.name(), "admission-broker");
  ASSERT_NE(broker.audit_surface(), nullptr);
  EXPECT_TRUE(broker.HasEstimate());
  EXPECT_DOUBLE_EQ(broker.TotalSupply(sim_.now()), broker.inner().TotalSupply(sim_.now()));
  // No degradation standing: availability passes straight through.
  EXPECT_DOUBLE_EQ(broker.AvailabilityFor(1, sim_.now()),
                   broker.inner().AvailabilityFor(1, sim_.now()));
}

TEST(StrategyRegistryTest, BuiltinListsTheZooInRegistrationOrder) {
  const std::vector<std::string> expected = {"odyssey", "laissez-faire", "blind-optimism",
                                             "congestion-manager", "admission-broker"};
  EXPECT_EQ(StrategyRegistry::Builtin().Names(), expected);
  EXPECT_EQ(StrategyRegistry::Builtin().Find("no-such-strategy"), nullptr);
}

TEST(StrategyRegistryTest, MetadataFlagsMatchTheZoo) {
  const StrategyRegistry& registry = StrategyRegistry::Builtin();
  EXPECT_EQ(registry.Find("odyssey")->label, "odyssey");
  EXPECT_EQ(registry.Find("laissez-faire")->label, "laissez");
  EXPECT_EQ(registry.Find("blind-optimism")->label, "blind");
  EXPECT_EQ(registry.Find("congestion-manager")->label, "cm");
  EXPECT_EQ(registry.Find("admission-broker")->label, "broker");

}

TEST(StrategyRegistryTest, CreateBuildsEveryRegisteredStrategy) {
  // Capabilities live on the built object: the centralized family exposes
  // an audit surface, and only the broker arbitrates registrations.
  struct Expected {
    std::string name;
    bool audit_surface;
    bool arbitrates;
  };
  const std::vector<Expected> expected = {
      {"odyssey", true, false},
      {"laissez-faire", false, false},
      {"blind-optimism", false, false},
      {"congestion-manager", true, false},
      {"admission-broker", true, true},
  };
  ASSERT_EQ(StrategyRegistry::Builtin().Names().size(), expected.size());
  Simulation sim(3);
  Link link(&sim, 120.0 * kKb, 10500);
  Modulator modulator(&sim, &link);
  for (const Expected& entry : expected) {
    StrategyContext context;
    context.sim = &sim;
    context.modulator = &modulator;
    const std::unique_ptr<BandwidthStrategy> strategy =
        StrategyRegistry::Builtin().Create(entry.name, std::move(context));
    ASSERT_NE(strategy, nullptr) << entry.name;
    EXPECT_EQ(strategy->name(), entry.name);
    EXPECT_EQ(strategy->audit_surface() != nullptr, entry.audit_surface) << entry.name;
    EXPECT_EQ(strategy->arbitration() != nullptr, entry.arbitrates) << entry.name;
  }
}

}  // namespace
}  // namespace odyssey
