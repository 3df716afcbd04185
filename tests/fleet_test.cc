// Property tests for the fleet subsystem (src/fleet, DESIGN.md §15):
// the estimate merge is a pure function of the delivered message set (never
// of arrival order), staleness weighting is monotone, the dispatcher's
// delays and drops are deterministic, the FleetSupplyModel clamp respects
// its documented bounds, the scenario generator's fleet dimension leaves
// historical seeds untouched, the service -> server-group mapping is
// pinned, a whole fleet fuzz run is bit-identical when repeated, and the
// campaign rig runs every registered strategy clean and reproducibly.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/estimator/supply_model.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_dispatcher.h"
#include "src/fleet/fleet_fuzz.h"
#include "src/fleet/fleet_message.h"
#include "src/fleet/fleet_node.h"
#include "src/fleet/fleet_oracle.h"
#include "src/fleet/fleet_scenario.h"
#include "src/fleet/fleet_supply_model.h"
#include "src/harness/scenario_registry.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/strategy_registry.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {
namespace {

FleetMessage Estimate(FleetNodeId origin, FleetServerId server, uint64_t seq, Time sent_at,
                      double supply_bps, int32_t active) {
  FleetMessage message;
  message.kind = FleetMessageKind::kEstimate;
  message.origin = origin;
  message.server = server;
  message.seq = seq;
  message.sent_at = sent_at;
  message.supply_bps = supply_bps;
  message.usage_bps = supply_bps / 2.0;
  message.active = active;
  return message;
}

// ---------------------------------------------------------------------------
// Aggregation merge properties.

TEST(FleetAggregatorTest, MergeIsPermutationInvariant) {
  Simulation sim(1);
  FleetDispatcher dispatcher(&sim);

  // A message set with duplicates, stale seqs arriving late, and several
  // origins; delivered to two aggregators in opposite orders.
  std::vector<FleetMessage> messages = {
      Estimate(1, 0, 2, 100 * kMillisecond, 64000.0, 1),
      Estimate(2, 0, 5, 300 * kMillisecond, 96000.0, 2),
      Estimate(1, 0, 1, 50 * kMillisecond, 10.0, 0),  // stale seq: must lose
      Estimate(3, 0, 1, 200 * kMillisecond, 32000.0, 1),
      Estimate(2, 0, 5, 300 * kMillisecond, 96000.0, 2),  // exact duplicate
      Estimate(2, 1, 3, 250 * kMillisecond, 48000.0, 1),
  };

  FleetAggregator forward(&sim, &dispatcher, /*self=*/100, /*seed=*/7);
  FleetAggregator backward(&sim, &dispatcher, /*self=*/101, /*seed=*/8);
  for (const FleetMessage& message : messages) {
    forward.OnMessage(message);
  }
  for (auto it = messages.rbegin(); it != messages.rend(); ++it) {
    backward.OnMessage(*it);
  }

  const Time now = 500 * kMillisecond;
  for (FleetServerId server : {FleetServerId{0}, FleetServerId{1}}) {
    const FleetAggregator::ServerView a = forward.ViewOf(server, now);
    const FleetAggregator::ServerView b = backward.ViewOf(server, now);
    EXPECT_EQ(a.valid, b.valid);
    // Bit-identical, not merely close: the merge folds origins in ascending
    // id regardless of arrival order, so the arithmetic is the same.
    EXPECT_EQ(a.supply_bps, b.supply_bps);
    EXPECT_EQ(a.active_clients, b.active_clients);
    EXPECT_EQ(a.reporting, b.reporting);
    EXPECT_EQ(forward.PeersFor(server), backward.PeersFor(server));
  }
}

TEST(FleetAggregatorTest, StrictlyHigherSeqWins) {
  Simulation sim(1);
  FleetDispatcher dispatcher(&sim);
  FleetAggregator agg(&sim, &dispatcher, /*self=*/100, /*seed=*/7);

  agg.OnMessage(Estimate(1, 0, 3, 100 * kMillisecond, 80000.0, 1));
  // A reordered older report and a same-seq replay must both lose.
  agg.OnMessage(Estimate(1, 0, 2, 150 * kMillisecond, 1.0, 1));
  agg.OnMessage(Estimate(1, 0, 3, 150 * kMillisecond, 2.0, 1));

  const FleetAggregator::ServerView view = agg.ViewOf(0, 200 * kMillisecond);
  ASSERT_TRUE(view.valid);
  EXPECT_DOUBLE_EQ(view.supply_bps, 80000.0);
}

TEST(FleetAggregatorTest, StalenessWeightingIsMonotone) {
  Simulation sim(1);
  FleetDispatcher dispatcher(&sim);
  const Time now = 20 * kSecond;

  // Origin 2's fresh report says 200 KB/s; origin 1's aging report says
  // 100 KB/s.  As origin 1's report ages, the merge must move monotonically
  // toward the fresh figure.
  double previous = 0.0;
  for (int age_s = 0; age_s <= 8; ++age_s) {
    FleetAggregator agg(&sim, &dispatcher, /*self=*/100, /*seed=*/7);
    agg.OnMessage(Estimate(1, 0, 1, now - age_s * kSecond, 100.0 * 1024.0, 1));
    agg.OnMessage(Estimate(2, 0, 1, now, 200.0 * 1024.0, 1));
    const FleetAggregator::ServerView view = agg.ViewOf(0, now);
    ASSERT_TRUE(view.valid);
    EXPECT_GE(view.supply_bps, 100.0 * 1024.0);
    EXPECT_LE(view.supply_bps, 200.0 * 1024.0);
    if (age_s > 0) {
      EXPECT_GT(view.supply_bps, previous) << "age " << age_s << "s";
    }
    previous = view.supply_bps;
  }

  // At age == staleness_tau the old report carries exactly half weight:
  // (0.5 * 100 + 1 * 200) / 1.5 KB/s.
  FleetAggregatorConfig config;
  FleetAggregator agg(&sim, &dispatcher, /*self=*/100, /*seed=*/7, config);
  agg.OnMessage(Estimate(1, 0, 1, now - config.staleness_tau, 100.0 * 1024.0, 1));
  agg.OnMessage(Estimate(2, 0, 1, now, 200.0 * 1024.0, 1));
  EXPECT_NEAR(agg.ViewOf(0, now).supply_bps, (0.5 * 100.0 + 200.0) / 1.5 * 1024.0, 1e-6);

  // Past stale_after the report leaves the merge entirely.
  FleetAggregator expired(&sim, &dispatcher, /*self=*/100, /*seed=*/7, config);
  expired.OnMessage(Estimate(1, 0, 1, now - config.stale_after - kSecond, 100.0 * 1024.0, 1));
  expired.OnMessage(Estimate(2, 0, 1, now, 200.0 * 1024.0, 1));
  const FleetAggregator::ServerView view = expired.ViewOf(0, now);
  ASSERT_TRUE(view.valid);
  EXPECT_DOUBLE_EQ(view.supply_bps, 200.0 * 1024.0);
  EXPECT_EQ(view.reporting, 1);
}

// ---------------------------------------------------------------------------
// Dispatcher determinism.

TEST(FleetDispatcherTest, DelayIsLatencyPlusSerialization) {
  Simulation sim(1);
  FleetDispatcher dispatcher(&sim);

  // 9600 B/s and 10 ms one-way: serialization of a 96-byte control message
  // costs exactly another 10 ms.
  ReplayTrace waveform;
  waveform.Append(10 * kSecond, 9600.0, 10 * kMillisecond);

  std::vector<Time> delivered_at;
  dispatcher.RegisterNode(0, &waveform, nullptr, [](const FleetMessage&) {});
  dispatcher.RegisterNode(1, nullptr, nullptr,
                          [&](const FleetMessage&) { delivered_at.push_back(sim.now()); });

  EXPECT_TRUE(dispatcher.Send(0, 1, Estimate(0, 0, 1, 0, 1000.0, 1)));
  sim.Run();
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], 20 * kMillisecond);
  EXPECT_EQ(dispatcher.messages_sent(), 1u);
  EXPECT_EQ(dispatcher.messages_delivered(), 1u);
  EXPECT_EQ(dispatcher.messages_dropped(), 0u);
}

TEST(FleetDispatcherTest, OutagesAndShadowsDropDeterministically) {
  Simulation sim(1);
  FleetDispatcher dispatcher(&sim);

  // Node 0's radio shadow: zero bandwidth for the first second.
  ReplayTrace shadowed;
  shadowed.Append(1 * kSecond, 0.0, 10 * kMillisecond);
  shadowed.Append(10 * kSecond, 9600.0, 10 * kMillisecond);

  // Node 1 spends [0, 2s) in an outage; sends toward it during the window
  // are lost at delivery time.
  Link link(&sim, 9600.0, 10 * kMillisecond);
  FaultInjector injector(&sim, &link);
  FaultPlan plan;
  plan.WithSeed(7).WithOutage(0, 2 * kSecond);
  injector.Arm(plan);

  uint64_t received = 0;
  dispatcher.RegisterNode(0, &shadowed, nullptr, [](const FleetMessage&) {});
  dispatcher.RegisterNode(1, nullptr, &injector, [&](const FleetMessage&) { ++received; });

  // In the shadow: lost at the sender.
  EXPECT_FALSE(dispatcher.Send(0, 1, Estimate(0, 0, 1, 0, 1000.0, 1)));
  // Past the shadow but into the receiver's outage: leaves the sender,
  // dies at delivery.
  Time now = 0;
  sim.ScheduleAt(1100 * kMillisecond, [&] {
    now = sim.now();
    EXPECT_TRUE(dispatcher.Send(0, 1, Estimate(0, 0, 2, now, 1000.0, 1)));
  });
  sim.RunUntil(1200 * kMillisecond);
  EXPECT_EQ(received, 0u);

  // Both attempts count as sends, both count as drops (one at the sender's
  // shadow, one at the receiver's outage), nothing is delivered.
  EXPECT_EQ(dispatcher.messages_sent(), 2u);
  EXPECT_EQ(dispatcher.messages_delivered(), 0u);
  EXPECT_EQ(dispatcher.messages_dropped(), 2u);
}

// ---------------------------------------------------------------------------
// FleetSupplyModel clamp bounds.

TEST(FleetSupplyModelTest, ClampStaysWithinDocumentedBounds) {
  Simulation sim(1);
  FleetDispatcher dispatcher(&sim);
  FleetAggregator agg(&sim, &dispatcher, /*self=*/0, /*seed=*/7);

  FleetSupplyModel fleet(&agg);
  FleetSupplyModel local_only(nullptr);
  const Time now = 10 * kSecond;
  for (FleetSupplyModel* model : {&fleet, &local_only}) {
    model->AddConnection(1);
    ThroughputObservation obs;
    obs.at = now - kSecond;
    obs.window_bytes = 50000.0;
    obs.elapsed = 1 * kSecond;
    model->OnThroughput(1, obs);
  }
  fleet.MapConnection(1, 0);

  // No fleet view yet: the model degenerates to the local one exactly.
  EXPECT_LT(fleet.ServerCapFor(0, now), 0.0);
  EXPECT_EQ(fleet.AvailabilityFor(1, now), local_only.AvailabilityFor(1, now));

  const double local_avail = local_only.AvailabilityFor(1, now);
  const double local_floor = local_only.TotalSupply() /
                             static_cast<double>(local_only.ActiveConnectionCount(now) + 1);

  // Two active peers crowd the server at a small merged supply: the cap
  // falls below the local floor, and the floor must win.
  agg.OnMessage(Estimate(1, 0, 1, now, 30000.0, 1));
  agg.OnMessage(Estimate(2, 0, 1, now, 30000.0, 1));
  EXPECT_DOUBLE_EQ(fleet.ServerCapFor(0, now), 30000.0 / 3.0);
  EXPECT_DOUBLE_EQ(fleet.AvailabilityFor(1, now), local_floor);

  // A generous merged supply: the cap lands between floor and the local
  // figure and becomes the availability.
  agg.OnMessage(Estimate(1, 0, 2, now, 90000.0, 1));
  agg.OnMessage(Estimate(2, 0, 2, now, 90000.0, 1));
  const double cap = fleet.ServerCapFor(0, now);
  EXPECT_DOUBLE_EQ(cap, 90000.0 / 3.0);
  ASSERT_GT(cap, local_floor);
  ASSERT_LT(cap, local_avail);
  EXPECT_DOUBLE_EQ(fleet.AvailabilityFor(1, now), cap);

  // An unmapped connection never consults the fleet view.
  fleet.AddConnection(2);
  local_only.AddConnection(2);
  EXPECT_EQ(fleet.AvailabilityFor(2, now), local_only.AvailabilityFor(2, now));
}

// ---------------------------------------------------------------------------
// Scenario generator: the fleet dimension.

TEST(FleetScenarioTest, DefaultsLeaveHistoricalSeedsUntouched) {
  ScenarioOptions off;
  off.fleet = false;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    EXPECT_EQ(GenerateScenario(seed).Describe(), GenerateScenario(seed, off).Describe());
    EXPECT_EQ(GenerateScenario(seed).fleet_nodes, 0);
  }
}

std::string StripFleetLine(const std::string& description) {
  std::string out;
  size_t pos = 0;
  while (pos < description.size()) {
    size_t end = description.find('\n', pos);
    if (end == std::string::npos) {
      end = description.size() - 1;
    }
    const std::string line = description.substr(pos, end - pos + 1);
    if (line.find("fleet nodes=") == std::string::npos) {
      out += line;
    }
    pos = end + 1;
  }
  return out;
}

TEST(FleetScenarioTest, FleetDimensionOnlyAppendsDraws) {
  ScenarioOptions on;
  on.fleet = true;
  int armed = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const FuzzScenario base = GenerateScenario(seed);
    const FuzzScenario fleet = GenerateScenario(seed, on);
    // The fleet draws happen after every historical draw: everything but
    // the fleet fields is identical.
    EXPECT_EQ(base.Describe(), StripFleetLine(fleet.Describe())) << "seed " << seed;
    if (fleet.fleet_nodes != 0) {
      ++armed;
      EXPECT_GE(fleet.fleet_nodes, 2);
      EXPECT_LE(fleet.fleet_nodes, 8);
      EXPECT_GE(fleet.fleet_servers, 1);
      EXPECT_LE(fleet.fleet_servers, 2);
    } else {
      EXPECT_EQ(fleet.fleet_servers, 0);
    }
  }
  // Roughly half the scenarios arm the dimension.
  EXPECT_GT(armed, 60 / 5);
  EXPECT_LT(armed, 60 * 4 / 5);
}

TEST(FleetScenarioTest, NodeWaveformsAreDeterministicAndBounded) {
  ScenarioOptions on;
  on.fleet = true;
  FuzzScenario scenario;
  for (uint64_t seed = 1;; ++seed) {
    ASSERT_LT(seed, 1000u);
    scenario = GenerateScenario(seed, on);
    if (scenario.fleet_nodes >= 2) {
      break;
    }
  }

  // Node 0 rides the scenario verbatim.
  EXPECT_EQ(FleetNodeScenario(scenario, 0).Describe(), scenario.Describe());

  for (int node = 1; node < scenario.fleet_nodes; ++node) {
    const FuzzScenario once = FleetNodeScenario(scenario, node);
    const FuzzScenario again = FleetNodeScenario(scenario, node);
    EXPECT_EQ(once.Describe(), again.Describe());
    ASSERT_EQ(once.segments.size(), scenario.segments.size());
    for (size_t i = 0; i < once.segments.size(); ++i) {
      const TraceSegment& base = scenario.segments[i];
      const TraceSegment& scaled = once.segments[i];
      EXPECT_EQ(scaled.duration, base.duration);
      EXPECT_EQ(scaled.latency, base.latency);
      if (base.bandwidth_bps <= 0.0) {
        EXPECT_EQ(scaled.bandwidth_bps, 0.0);  // radio shadows stay shadows
      } else {
        EXPECT_GE(scaled.bandwidth_bps, base.bandwidth_bps * 0.5);
        EXPECT_LT(scaled.bandwidth_bps, base.bandwidth_bps * 1.5);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Service -> server-group mapping.  A changed hash would silently regroup
// every fleet fuzz run, so the warden services' groups are pinned.

TEST(FleetNodeTest, ServerGroupOfIsPinned) {
  // The campaign's explicit groups parse their suffix.
  EXPECT_EQ(ServerGroupOf("fleet-s0", 2), 0u);
  EXPECT_EQ(ServerGroupOf("fleet-s1", 2), 1u);
  EXPECT_EQ(ServerGroupOf("fleet-s5", 3), 2u);
  EXPECT_EQ(ServerGroupOf("fleet-s7", 8), 7u);
  EXPECT_EQ(ServerGroupOf("fleet-s9", 8), 1u);

  // Every service a fuzz warden opens hashes (FNV-1a 64); expected groups
  // at 2, 3 and 8 servers.
  struct Pin {
    const char* service;
    FleetServerId at2, at3, at8;
  };
  const Pin pins[] = {
      {"video:default", 1, 1, 1}, {"distillation", 1, 1, 7}, {"janus", 0, 2, 4},
      {"bitstream", 0, 2, 6},     {"file-server", 1, 0, 3},  {"telemetry:feed0", 0, 0, 0},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(ServerGroupOf(pin.service, 2), pin.at2) << pin.service;
    EXPECT_EQ(ServerGroupOf(pin.service, 3), pin.at3) << pin.service;
    EXPECT_EQ(ServerGroupOf(pin.service, 8), pin.at8) << pin.service;
  }
}

// ---------------------------------------------------------------------------
// Whole-run bit-identity and the quiescence gates.

TEST(FleetFuzzTest, RunIsBitIdenticalWhenRepeated) {
  ScenarioOptions on;
  on.fleet = true;
  int exercised = 0;
  for (uint64_t seed = 1; seed <= 40 && exercised < 3; ++seed) {
    const FuzzScenario scenario = GenerateScenario(seed, on);
    if (scenario.fleet_nodes < 2) {
      continue;
    }
    ++exercised;
    const FuzzRunResult a = RunFleetFuzzScenario(scenario);
    const FuzzRunResult b = RunFleetFuzzScenario(scenario);
    EXPECT_TRUE(a.ok()) << FormatViolations(a.violations);
    EXPECT_EQ(a.violation_count, b.violation_count);
    EXPECT_EQ(a.upcalls_delivered, b.upcalls_delivered);
    EXPECT_EQ(a.requests_granted, b.requests_granted);
    EXPECT_EQ(a.requests_denied, b.requests_denied);
    EXPECT_EQ(a.cancels_ok, b.cancels_ok);
    EXPECT_EQ(a.tsops_issued, b.tsops_issued);
    EXPECT_EQ(a.tie_pairs_audited, b.tie_pairs_audited);
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  }
  EXPECT_EQ(exercised, 3);
}

// The campaign rig: every registered strategy has fixed and mobility
// variants, and its smallest fixed variant runs clean and reproducibly.
TEST(FleetScenarioTest, EveryStrategyRunsCleanAndRepeatably) {
  ScenarioRegistry registry;
  RegisterFleetScenarios(&registry);
  const Scenario* scenario = registry.Find("fleet_share");
  ASSERT_NE(scenario, nullptr);
  for (const std::string& strategy : StrategyRegistry::Builtin().Names()) {
    const std::string& label = StrategyRegistry::Builtin().Find(strategy)->label;
    EXPECT_NE(scenario->FindVariant("n2_" + label + "_mob"), nullptr) << strategy;
    const ScenarioVariant* fixed = scenario->FindVariant("n2_" + label + "_fixed");
    ASSERT_NE(fixed, nullptr) << strategy;
    const TrialMetrics a = fixed->run(3, nullptr);
    const TrialMetrics b = fixed->run(3, nullptr);
    ASSERT_EQ(a.size(), b.size()) << strategy;
    bool has_violation_metric = false;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].name, b[i].name) << strategy;
      if (a[i].name.rfind("wall_", 0) == 0) {
        continue;  // machine-dependent
      }
      EXPECT_EQ(a[i].value, b[i].value) << strategy << " " << a[i].name;
      if (a[i].name == "oracle_violations") {
        has_violation_metric = true;
        EXPECT_EQ(a[i].value, 0.0) << strategy;
      }
    }
    EXPECT_TRUE(has_violation_metric) << strategy;
  }
}

TEST(FleetOracleTest, QuiescenceHelpersGateTheConvergenceCheck) {
  ReplayTrace live;
  live.Append(4 * kSecond, 9600.0, 10 * kMillisecond);
  EXPECT_TRUE(WaveformLiveThroughout(live, 2 * kSecond, 6 * kSecond));

  ReplayTrace shadow_tail;
  shadow_tail.Append(2 * kSecond, 9600.0, 10 * kMillisecond);
  shadow_tail.Append(2 * kSecond, 0.0, 10 * kMillisecond);
  EXPECT_FALSE(WaveformLiveThroughout(shadow_tail, kSecond, 4 * kSecond));
  EXPECT_TRUE(WaveformLiveThroughout(shadow_tail, 0, kSecond));

  FaultPlan quiet;
  quiet.WithOutage(0, kSecond);
  EXPECT_TRUE(FaultPlanQuietAfter(quiet, 2 * kSecond));
  EXPECT_FALSE(FaultPlanQuietAfter(quiet, 500 * kMillisecond));

  FaultPlan noisy;
  noisy.WithDropProbability(0.1);
  EXPECT_FALSE(FaultPlanQuietAfter(noisy, 2 * kSecond));
}

}  // namespace
}  // namespace odyssey
