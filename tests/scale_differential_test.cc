// Differential tests for the scaled viceroy hot core.
//
// The scale work (incremental supply model, indexed re-evaluation, slab
// request table, batched upcall dispatch) is behavior-preserving by
// construction; these tests prove it empirically by running the production
// stack and the pre-scale reference stack (an injected NaiveSupplyModel,
// whose inexact hints take the full-scan re-evaluation) over the same
// inputs and requiring *bit-identical* results — every availability figure
// and every delivered upcall, compared with exact floating-point equality,
// over hundreds of fuzzer scenarios including large-N populations.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/catalog/catalog.h"
#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/scale_scenario.h"
#include "src/estimator/supply_model.h"
#include "src/harness/campaign.h"
#include "src/harness/scenario_registry.h"
#include "src/harness/worker_pool.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/centralized.h"

namespace odyssey {
namespace {

// --- Model-level differential -------------------------------------------
//
// Drives the incremental and naive supply models through the same random
// operation sequence and compares every observable after every operation.
// EXPECT_EQ on doubles is deliberate: the incremental model's contract is
// exact equality, not tolerance.

struct ModelPair {
  std::unique_ptr<SupplyModelInterface> fast = std::make_unique<SupplyModel>();
  std::unique_ptr<SupplyModelInterface> naive = std::make_unique<NaiveSupplyModel>();

  // Queries every connection in |connections| at |now| on both models.
  void CheckAvailabilities(const std::vector<ConnectionId>& connections, Time now) {
    for (const ConnectionId connection : connections) {
      ASSERT_EQ(fast->AvailabilityFor(connection, now), naive->AvailabilityFor(connection, now))
          << "connection " << connection << " at " << now;
    }
  }

  // |unregistered| are ids the models must treat as unknown: removed ones
  // (their dense slots sit empty) and ones past the largest registered id.
  void CheckIdentical(const std::vector<ConnectionId>& connections,
                      const std::vector<ConnectionId>& unregistered, Time now) {
    ASSERT_EQ(fast->has_supply(), naive->has_supply());
    ASSERT_EQ(fast->TotalSupply(), naive->TotalSupply());
    ASSERT_EQ(fast->ActiveConnectionCount(now), naive->ActiveConnectionCount(now));
    for (const ConnectionId connection : connections) {
      ASSERT_EQ(fast->UsageRateFor(connection, now), naive->UsageRateFor(connection, now))
          << "connection " << connection << " at " << now;
    }
    CheckAvailabilities(connections, now);
    // An unknown connection takes the idle fair-share branch in both.
    ASSERT_EQ(fast->AvailabilityFor(0, now), naive->AvailabilityFor(0, now));
    for (const ConnectionId connection : unregistered) {
      ASSERT_EQ(fast->AvailabilityFor(connection, now), naive->AvailabilityFor(connection, now))
          << "unregistered connection " << connection << " at " << now;
      ASSERT_EQ(fast->UsageRateFor(connection, now), 0.0);
      ASSERT_EQ(fast->EstimatorFor(connection), nullptr);
    }
  }
};

ThroughputObservation RandomThroughput(Rng* rng, Time at) {
  ThroughputObservation obs;
  obs.elapsed = 1 * kMillisecond + static_cast<Duration>(rng->UniformInt(1 * kSecond));
  obs.at = at;
  obs.window_bytes = rng->Uniform(0.0, 200.0 * 1024.0);
  return obs;
}

TEST(ScaleDifferentialTest, ModelsBitIdenticalOverRandomOperations) {
  constexpr int kSeeds = 200;
  constexpr int kOpsPerSeed = 150;
  for (int trial = 0; trial < kSeeds; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(DeriveTrialSeed(0x5ca1eULL, static_cast<uint64_t>(trial)));
    ModelPair pair;
    std::vector<ConnectionId> connections;
    std::vector<ConnectionId> removed;
    ConnectionId next_id = 1;
    Time now = 0;
    for (int op = 0; op < kOpsPerSeed; ++op) {
      const double draw = rng.NextDouble();
      if (draw < 0.12 || connections.empty()) {
        const ConnectionId id = next_id++;
        connections.push_back(id);
        pair.fast->AddConnection(id);
        pair.naive->AddConnection(id);
      } else if (draw < 0.18 && !removed.empty()) {
        // Re-add a removed id: the incremental model reuses its dense slot,
        // which must come back as a fresh connection with no usage.
        const size_t pick = rng.UniformInt(removed.size());
        const ConnectionId id = removed[pick];
        removed.erase(removed.begin() + static_cast<ptrdiff_t>(pick));
        connections.push_back(id);
        pair.fast->AddConnection(id);
        pair.naive->AddConnection(id);
      } else if (draw < 0.27) {
        const size_t victim = rng.UniformInt(connections.size());
        const ConnectionId id = connections[victim];
        connections.erase(connections.begin() + static_cast<ptrdiff_t>(victim));
        removed.push_back(id);
        pair.fast->RemoveConnection(id);
        pair.naive->RemoveConnection(id);
      } else if (draw < 0.62) {
        const ConnectionId id = connections[rng.UniformInt(connections.size())];
        now += static_cast<Duration>(rng.UniformInt(200 * kMillisecond));
        const ThroughputObservation obs = RandomThroughput(&rng, now);
        pair.fast->OnThroughput(id, obs);
        pair.naive->OnThroughput(id, obs);
      } else if (draw < 0.7) {
        // A same-instant burst of queries (one re-evaluation pass), then an
        // observation at that very instant, then the burst again: the
        // per-scan rate memo must not serve the first burst's rates.
        pair.CheckAvailabilities(connections, now);
        if (HasFatalFailure()) {
          return;
        }
        const ConnectionId id = connections[rng.UniformInt(connections.size())];
        const ThroughputObservation obs = RandomThroughput(&rng, now);
        pair.fast->OnThroughput(id, obs);
        pair.naive->OnThroughput(id, obs);
      } else if (draw < 0.85) {
        const ConnectionId id = connections[rng.UniformInt(connections.size())];
        RoundTripObservation obs;
        now += static_cast<Duration>(rng.UniformInt(200 * kMillisecond));
        obs.at = now;
        obs.rtt = 1 * kMillisecond + static_cast<Duration>(rng.UniformInt(100 * kMillisecond));
        pair.fast->OnRoundTrip(id, obs);
        pair.naive->OnRoundTrip(id, obs);
      } else if (draw < 0.9) {
        const ConnectionId id = connections[rng.UniformInt(connections.size())];
        FailureObservation obs;
        obs.at = now;
        obs.attempts = 1 + static_cast<int>(rng.UniformInt(4));
        pair.fast->OnFailure(id, obs);
        pair.naive->OnFailure(id, obs);
      } else {
        // Let the activity and supply windows slide with no new evidence.
        now += static_cast<Duration>(rng.UniformInt(3 * kSecond));
      }
      std::vector<ConnectionId> unregistered = removed;
      unregistered.push_back(next_id);
      unregistered.push_back(next_id + 1000);
      pair.CheckIdentical(connections, unregistered, now);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// --- Strategy-level differential -----------------------------------------
//
// An app that detaches every connection and then reattaches them empties
// and refills the strategy's per-app connection list, its owner and
// endpoint slots, and the supply model's per-connection slots under the
// same ids.  The incremental strategy must agree with the naive one on
// every per-app figure throughout, and its exact re-evaluation hint must
// hold against the naive figures: every app it leaves out of |dirty| sits
// at the idle level listed for its connection count.  (The naive model
// yields an inexact hint that marks every attached app dirty, so the two
// hints themselves are not compared for equality.)

class StrategyPair {
 public:
  StrategyPair() {
    for (int i = 0; i < 6; ++i) {
      const std::string index = std::to_string(i);
      endpoints_.push_back(std::make_unique<Endpoint>(&sim_, &link_, "s" + index));
    }
  }

  Endpoint* endpoint(size_t i) { return endpoints_[i].get(); }

  void Attach(AppId app, size_t i) {
    fast_.AttachConnection(app, endpoint(i));
    naive_.AttachConnection(app, endpoint(i));
  }
  void Detach(size_t i) {
    fast_.DetachConnection(endpoint(i));
    naive_.DetachConnection(endpoint(i));
  }
  void Feed(size_t i, Time at, double bytes, Duration rtt) {
    const ConnectionId id = endpoint(i)->id();
    const ThroughputObservation throughput{at, bytes, 200 * kMillisecond};
    fast_.OnThroughput(id, throughput);
    naive_.OnThroughput(id, throughput);
    const RoundTripObservation round_trip{at, rtt};
    fast_.OnRoundTrip(id, round_trip);
    naive_.OnRoundTrip(id, round_trip);
  }

  // Compares apps 1..|apps| (plus one never-registered app) and every
  // endpoint, then drains and checks the incremental hint.  Returns the
  // hint's dirty set.
  std::vector<AppId> Check(AppId apps, Time now) {
    for (AppId app = 1; app <= apps + 1; ++app) {
      EXPECT_EQ(fast_.AvailabilityFor(app, now), naive_.AvailabilityFor(app, now))
          << "app " << app << " at " << now;
      EXPECT_EQ(fast_.ConnectionCountFor(app), naive_.ConnectionCountFor(app)) << "app " << app;
      EXPECT_EQ(fast_.SmoothedRttFor(app), naive_.SmoothedRttFor(app)) << "app " << app;
    }
    for (const auto& endpoint : endpoints_) {
      const ConnectionId id = endpoint->id();
      EXPECT_EQ(fast_.OwnerOf(id), naive_.OwnerOf(id)) << "connection " << id;
      EXPECT_EQ(fast_.ConnectionAvailability(id, now), naive_.ConnectionAvailability(id, now))
          << "connection " << id << " at " << now;
    }
    EXPECT_EQ(fast_.AttachedConnections(), naive_.AttachedConnections());

    const ReevalHint hint = fast_.TakeReevalHint(now);
    const ReevalHint reference = naive_.TakeReevalHint(now);
    EXPECT_TRUE(hint.exact);
    EXPECT_FALSE(reference.exact);
    EXPECT_TRUE(std::is_sorted(hint.dirty.begin(), hint.dirty.end()));
    EXPECT_TRUE(std::includes(reference.dirty.begin(), reference.dirty.end(), hint.dirty.begin(),
                              hint.dirty.end()));
    std::vector<int> counts;
    for (AppId app = 1; app <= apps; ++app) {
      const int count = naive_.ConnectionCountFor(app);
      if (count > 0) {
        counts.push_back(count);
      }
      if (std::binary_search(hint.dirty.begin(), hint.dirty.end(), app)) {
        continue;
      }
      double idle = 0.0;  // an app with no connections sums nothing
      for (const auto& [k, level] : hint.idle_levels) {
        if (k == count) {
          idle = level;
        }
      }
      EXPECT_EQ(naive_.AvailabilityFor(app, now), idle) << "clean app " << app << " at " << now;
    }
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
    std::vector<int> listed;
    for (const auto& [k, level] : hint.idle_levels) {
      listed.push_back(k);
    }
    EXPECT_EQ(listed, counts);
    return hint.dirty;
  }

 private:
  Simulation sim_;
  Link link_{&sim_, 400.0 * 1024.0, 10 * kMillisecond};
  // Endpoints outlive the strategies, which unsubscribe from their logs.
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  CentralizedStrategy fast_{&sim_};
  CentralizedStrategy naive_{&sim_, std::make_unique<NaiveSupplyModel>()};
};

TEST(ScaleDifferentialTest, DetachAllThenReattachMatchesNaiveStrategy) {
  StrategyPair pair;
  // App 1 owns endpoints 0-2, app 2 owns 3-4, app 3 owns 5.
  constexpr AppId kOwner[] = {1, 1, 1, 2, 2, 3};
  for (size_t i = 0; i < 6; ++i) {
    pair.Attach(kOwner[i], i);
  }
  Time now = 0;
  pair.Check(3, now);

  // Everyone streams for a while.
  for (int step = 0; step < 8; ++step) {
    now += 100 * kMillisecond;
    for (size_t i = 0; i < 6; ++i) {
      pair.Feed(i, now, 16.0 * 1024.0 * static_cast<double>(i + 1),
                (20 + static_cast<Duration>(i)) * kMillisecond);
    }
    pair.Check(3, now);
  }

  // App 1 detaches every connection: its figures drop to the empty sum and
  // it must be in the next hint's dirty set.
  for (size_t i = 0; i < 3; ++i) {
    pair.Detach(i);
  }
  std::vector<AppId> dirty = pair.Check(3, now);
  EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(), AppId{1}));

  // The others keep streaming while app 1 has nothing attached.
  for (int step = 0; step < 4; ++step) {
    now += 100 * kMillisecond;
    for (size_t i = 3; i < 6; ++i) {
      pair.Feed(i, now, 32.0 * 1024.0, 25 * kMillisecond);
    }
    pair.Check(3, now);
  }

  // Reattach under the same ids (the dense slots are reused), then stream
  // on them again.
  for (size_t i = 0; i < 3; ++i) {
    pair.Attach(1, i);
  }
  dirty = pair.Check(3, now);
  EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(), AppId{1}));
  for (int step = 0; step < 4; ++step) {
    now += 100 * kMillisecond;
    for (size_t i = 0; i < 6; ++i) {
      pair.Feed(i, now, 8.0 * 1024.0, 30 * kMillisecond);
    }
    pair.Check(3, now);
  }

  // Let all usage age out: every app falls back to its idle level.
  now += 10 * kSecond;
  pair.Check(3, now);
  dirty = pair.Check(3, now);
  EXPECT_TRUE(dirty.empty());
}

// --- Full-stack differential --------------------------------------------
//
// Every fuzzer scenario runs twice: once on the production stack and once
// on the reference stack.  The pass criterion is equality of the complete
// DifferentialLog — the full upcall sequence (app, seq, request, resource,
// level, post and delivery times) and every periodic availability sample —
// plus a clean oracle verdict on both sides.

struct DifferentialOutcome {
  DifferentialLog production;
  DifferentialLog reference;
  uint64_t production_violations = 0;
  uint64_t reference_violations = 0;
};

DifferentialOutcome RunBothStacks(const FuzzScenario& scenario) {
  DifferentialOutcome outcome;
  FuzzRunOptions options;
  options.differential = &outcome.production;
  outcome.production_violations = RunFuzzScenario(scenario, options).violation_count;
  options.reference_stack = true;
  options.differential = &outcome.reference;
  outcome.reference_violations = RunFuzzScenario(scenario, options).violation_count;
  return outcome;
}

void ExpectLogsIdentical(const DifferentialOutcome& outcome, const std::string& label) {
  EXPECT_EQ(outcome.production_violations, 0u) << label;
  EXPECT_EQ(outcome.reference_violations, 0u) << label;
  ASSERT_EQ(outcome.production.upcalls.size(), outcome.reference.upcalls.size()) << label;
  for (size_t i = 0; i < outcome.production.upcalls.size(); ++i) {
    const UpcallRecord& a = outcome.production.upcalls[i];
    const UpcallRecord& b = outcome.reference.upcalls[i];
    ASSERT_TRUE(a == b) << label << " upcall " << i << ": app " << a.app << "/" << b.app
                        << " seq " << a.seq << "/" << b.seq << " level " << a.level << "/"
                        << b.level << " delivered " << a.delivered_at << "/" << b.delivered_at;
  }
  ASSERT_EQ(outcome.production.samples.size(), outcome.reference.samples.size()) << label;
  for (size_t i = 0; i < outcome.production.samples.size(); ++i) {
    ASSERT_EQ(outcome.production.samples[i], outcome.reference.samples[i])
        << label << " sample stream diverges at element " << i;
  }
}

TEST(ScaleDifferentialTest, FullStackIdenticalOverFuzzScenarios) {
  // 184 scenarios from the historical generator plus 16 large-N ones (up to
  // 64 apps): 200 total, each executed on both stacks.
  constexpr size_t kDefaultScenarios = 184;
  constexpr size_t kLargeScenarios = 16;
  constexpr size_t kTotal = kDefaultScenarios + kLargeScenarios;
  constexpr uint64_t kSweepSeed = 1997;

  std::vector<DifferentialOutcome> outcomes(kTotal);
  RunIndexedTasks(DefaultJobCount(), kTotal, [&](size_t i) {
    ScenarioOptions options;
    if (i >= kDefaultScenarios) {
      options.max_apps = 64;
    }
    outcomes[i] = RunBothStacks(GenerateScenario(DeriveTrialSeed(kSweepSeed, i), options));
  });

  for (size_t i = 0; i < kTotal; ++i) {
    ExpectLogsIdentical(outcomes[i],
                        "scenario " + std::to_string(i) +
                            (i >= kDefaultScenarios ? " (large-N)" : ""));
    if (HasFatalFailure()) {
      return;
    }
  }
}

// --- The tier_scale campaign --------------------------------------------

TEST(ScaleCampaignTest, ExpandsAgainstScaleAwareRegistry) {
  ScenarioRegistry registry;
  RegisterAllScenarios(&registry);
  const std::vector<CampaignSpec> campaigns = AllCampaigns();
  const CampaignSpec* tier_scale = FindCampaign(campaigns, "tier_scale");
  ASSERT_NE(tier_scale, nullptr);
  std::vector<PlannedTrial> plan;
  const Status status = ExpandCampaign(*tier_scale, registry, &plan);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(plan.size(), 5u);  // one sweep per variant, n100 runs three trials
}

TEST(ScaleCampaignTest, SmallVariantRunsCleanUnderOracles) {
  ScenarioRegistry registry;
  RegisterScaleScenarios(&registry);
  const Scenario* scenario = registry.Find("scale_core");
  ASSERT_NE(scenario, nullptr);
  const ScenarioVariant* variant = scenario->FindVariant("n100");
  ASSERT_NE(variant, nullptr);
  const TrialMetrics metrics = variant->run(1997, nullptr);
  double upcalls = -1.0;
  double violations = -1.0;
  double registered = -1.0;
  for (const MetricValue& metric : metrics) {
    if (metric.name == "upcalls") {
      upcalls = metric.value;
    } else if (metric.name == "oracle_violations") {
      violations = metric.value;
    } else if (metric.name == "windows_registered") {
      registered = metric.value;
    }
  }
  EXPECT_EQ(violations, 0.0);
  // The supply steps must actually have driven adaptation rounds.
  EXPECT_GE(upcalls, 100.0);
  EXPECT_GE(registered, 200.0);
}

}  // namespace
}  // namespace odyssey
