// Property-based tests: invariants that must hold across swept parameter
// spaces, exercised with parameterized gtest suites.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/bitstream_app.h"
#include "src/apps/video_player.h"
#include "src/core/upcall.h"
#include "src/estimator/supply_model.h"
#include "src/metrics/experiment.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/sim/simulation.h"
#include "src/strategies/centralized.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

// --- Link conservation: delivered bytes never exceed capacity * time ---

class LinkConservation : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(LinkConservation, DeliveredBytesBoundedByCapacity) {
  const double capacity = std::get<0>(GetParam());
  const int flows = std::get<1>(GetParam());
  Simulation sim(7);
  Link link(&sim, capacity, 0);
  int completed = 0;
  for (int i = 0; i < flows; ++i) {
    link.StartFlow(37.0 * kKb + i * 11.0, [&] { ++completed; });
  }
  sim.RunUntil(10 * kSecond);
  const double max_deliverable = capacity * 10.0 + 1.0;
  EXPECT_LE(link.bytes_delivered(), max_deliverable);
  // And everything that could complete, did.
  double total_offered = 0.0;
  for (int i = 0; i < flows; ++i) {
    total_offered += 37.0 * kKb + i * 11.0;
  }
  if (total_offered <= capacity * 10.0) {
    EXPECT_EQ(completed, flows);
    EXPECT_NEAR(link.bytes_delivered(), total_offered, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinkConservation,
    ::testing::Combine(::testing::Values(10.0 * kKb, 40.0 * kKb, 120.0 * kKb, 1000.0 * kKb),
                       ::testing::Values(1, 3, 8, 20)));

// --- Processor sharing is fair: equal flows finish together ---

class LinkFairness : public ::testing::TestWithParam<int> {};

TEST_P(LinkFairness, EqualFlowsFinishTogether) {
  const int flows = GetParam();
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  std::vector<Time> done(flows, -1);
  for (int i = 0; i < flows; ++i) {
    link.StartFlow(20.0 * kKb, [&done, i, &sim] { done[i] = sim.now(); });
  }
  sim.Run();
  for (int i = 1; i < flows; ++i) {
    EXPECT_EQ(done[i], done[0]);
  }
  // n equal flows at C/n each: total time = n * bytes / C.
  EXPECT_NEAR(DurationToSeconds(done[0]), flows * 20.0 / 100.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LinkFairness, ::testing::Values(2, 3, 5, 9, 16));

// --- RPC timing: a fetch takes at least the ideal transfer time ---

class RpcTiming : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RpcTiming, FetchTimeBoundedBelowByIdeal) {
  const double capacity = std::get<0>(GetParam());
  const double bytes = std::get<1>(GetParam());
  Simulation sim;
  Link link(&sim, capacity, 10500);
  Endpoint endpoint(&sim, &link, "server");
  Time done_at = -1;
  endpoint.Fetch(bytes, 0, [&](Status) { done_at = sim.now(); });
  sim.Run();
  ASSERT_GE(done_at, 0);
  const double ideal_seconds = bytes / capacity;
  EXPECT_GE(DurationToSeconds(done_at), ideal_seconds);
  // ...and overhead is bounded: request round trips per window plus slack.
  const double windows = std::max(1.0, bytes / kDefaultWindowBytes) + 1.0;
  EXPECT_LE(DurationToSeconds(done_at), ideal_seconds + windows * 0.1 + 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RpcTiming,
    ::testing::Combine(::testing::Values(20.0 * kKb, 40.0 * kKb, 120.0 * kKb, 500.0 * kKb),
                       ::testing::Values(1.0 * kKb, 30.0 * kKb, 64.0 * kKb, 300.0 * kKb)));

// --- Estimator: supply estimate converges for any constant link rate ---

class EstimatorConvergence : public ::testing::TestWithParam<double> {};

TEST_P(EstimatorConvergence, BitstreamDrivesEstimateToLinkRate) {
  const double rate = GetParam();
  ExperimentRig rig(3, "odyssey");
  BitstreamApp app(&rig.client(), "bitstream");
  rig.Replay(MakeConstant(rate, 2 * kMinute), /*prime=*/false);
  app.Start();
  rig.sim().RunUntil(kMinute);
  EXPECT_NEAR(rig.centralized()->TotalSupply(rig.sim().now()), rate, 0.12 * rate)
      << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EstimatorConvergence,
                         ::testing::Values(20.0 * kKb, 40.0 * kKb, 80.0 * kKb, 120.0 * kKb,
                                           240.0 * kKb, 1000.0 * kKb));

// --- Availability invariants over random usage patterns ---

class AvailabilityInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AvailabilityInvariants, SharesRespectFloorAndCeiling) {
  Rng rng(GetParam());
  SupplyModel model;
  constexpr int kConnections = 4;
  for (ConnectionId c = 1; c <= kConnections; ++c) {
    model.AddConnection(c);
  }
  // Random interleaved observations.
  Time now = 0;
  for (int i = 0; i < 200; ++i) {
    now += static_cast<Duration>(rng.Uniform(50, 400)) * kMillisecond;
    const ConnectionId c = 1 + rng.UniformInt(kConnections);
    const double bytes = rng.Uniform(4.0, 64.0) * kKb;
    const Duration elapsed =
        static_cast<Duration>(rng.Uniform(50, 800)) * kMillisecond + 21 * kMillisecond;
    model.OnThroughput(c, {now, bytes, elapsed});
  }
  const double supply = model.TotalSupply();
  ASSERT_GT(supply, 0.0);
  const int active = model.ActiveConnectionCount(now);
  double total_available = 0.0;
  for (ConnectionId c = 1; c <= kConnections; ++c) {
    const double a = model.AvailabilityFor(c, now);
    // Ceiling: nobody is ever promised more than the whole supply.
    EXPECT_LE(a, supply + 1e-9);
    // Floor: an active connection always gets at least a fair share.
    EXPECT_GE(a, supply / (active + 1) - 1e-9);
    total_available += a;
  }
  // Shares are availabilities, not reservations, so they may overlap; but
  // their sum is bounded by fair shares plus the headroom handed out once
  // per connection in the worst case.
  EXPECT_LE(total_available, 2.0 * kConnections * supply);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvailabilityInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Upcall ordering under stress ---

class UpcallStress : public ::testing::TestWithParam<int> {};

TEST_P(UpcallStress, OrderPreservedAcrossManyPostsAndApps) {
  const int per_app = GetParam();
  Simulation sim(11);
  UpcallDispatcher dispatcher(&sim);
  constexpr int kApps = 5;
  std::vector<std::vector<int>> delivered(kApps);
  // Interleave posts across apps from timer events.
  for (int i = 0; i < per_app; ++i) {
    sim.Schedule(static_cast<Duration>(sim.rng().UniformInt(1000)), [&, i] {
      for (AppId app = 1; app <= kApps; ++app) {
        dispatcher.Post(app, i, ResourceId::kNetworkBandwidth, i,
                        [&delivered, app, i](RequestId, ResourceId, double) {
                          delivered[app - 1].push_back(i);
                        });
      }
    });
  }
  sim.Run();
  for (int app = 0; app < kApps; ++app) {
    ASSERT_EQ(delivered[app].size(), static_cast<size_t>(per_app));
    // Exactly once each; order matches post order *per posting event*.
    std::vector<int> sorted = delivered[app];
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < per_app; ++i) {
      EXPECT_EQ(sorted[i], i);
    }
  }
  EXPECT_EQ(dispatcher.delivered_count(), static_cast<uint64_t>(per_app * kApps));
}

INSTANTIATE_TEST_SUITE_P(Sweep, UpcallStress, ::testing::Values(1, 10, 100));

// --- Upcall §4.3 semantics under random Block/Unblock and network faults ---

class UpcallInterleaving : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpcallInterleaving, ExactlyOnceInOrderUnderRandomBlockingAndFaults) {
  const uint64_t seed = GetParam();
  Simulation sim(seed);
  UpcallDispatcher dispatcher(&sim, /*delivery_latency=*/1 * kMillisecond);

  // Background RPC traffic through a faulty link, with retries enabled, so
  // timeout/backoff/outage events interleave with dispatcher events on the
  // same queue.
  Link link(&sim, 100.0 * kKb, 10 * kMillisecond);
  FaultInjector injector(&sim, &link);
  FaultPlan plan;
  plan.WithSeed(seed)
      .WithDropProbability(0.3)
      .WithOutage(2 * kSecond, 1 * kSecond)
      .WithLatencySpike(4 * kSecond, 1 * kSecond, 200 * kMillisecond)
      .WithFlowKill(3 * kSecond)
      .WithFlowKill(5 * kSecond);
  injector.Arm(plan);
  Endpoint endpoint(&sim, &link, "server");
  endpoint.set_retry_policy(RetryPolicy::Default());
  endpoint.set_fault_injector(&injector);
  int fetches_left = 60;
  std::function<void()> pump = [&] {
    if (--fetches_left < 0) {
      return;
    }
    endpoint.Fetch(8.0 * kKb, 0,
                   [&](Status) { sim.Schedule(50 * kMillisecond, [&] { pump(); }); });
  };
  pump();

  constexpr int kApps = 3;
  std::vector<uint64_t> posted(kApps, 0);
  std::vector<std::vector<uint64_t>> delivered(kApps);
  constexpr int kOps = 300;
  for (int i = 0; i < kOps; ++i) {
    sim.Schedule(static_cast<Duration>(sim.rng().UniformInt(8000)) * kMillisecond, [&] {
      const AppId app = 1 + static_cast<AppId>(sim.rng().UniformInt(kApps));
      const double r = sim.rng().NextDouble();
      if (r < 0.6) {
        // Carry the expected per-app sequence number in the request id so
        // the handler can report which upcall it was.
        const uint64_t expected = ++posted[app - 1];
        const uint64_t seq =
            dispatcher.Post(app, expected, ResourceId::kNetworkBandwidth, 0.0,
                            [&dispatcher, &delivered, app](RequestId request, ResourceId, double) {
                              // Never delivered while the app is blocked.
                              EXPECT_FALSE(dispatcher.blocked(app));
                              delivered[app - 1].push_back(request);
                            });
        EXPECT_EQ(seq, expected);
      } else if (r < 0.8) {
        dispatcher.Block(app);
      } else {
        dispatcher.Unblock(app);
      }
    });
  }
  // Drain: whatever is still blocked at the end gets released.
  sim.Schedule(9 * kSecond, [&] {
    for (AppId app = 1; app <= kApps; ++app) {
      dispatcher.Unblock(app);
    }
  });
  sim.Run();

  uint64_t total_posted = 0;
  for (int app = 0; app < kApps; ++app) {
    total_posted += posted[app];
    // Exactly once, in order: the delivered sequence is precisely 1..n.
    ASSERT_EQ(delivered[app].size(), posted[app]) << "app " << app + 1;
    for (size_t i = 0; i < delivered[app].size(); ++i) {
      ASSERT_EQ(delivered[app][i], i + 1) << "app " << app + 1;
    }
    EXPECT_EQ(dispatcher.last_delivered_seq(app + 1), posted[app]);
  }
  EXPECT_EQ(dispatcher.delivered_count(), total_posted);
  EXPECT_EQ(fetches_left, -1) << "background traffic stalled";
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpcallInterleaving,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Video sustainability: a track within budget plays nearly drop-free ---

class VideoSustainability : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(VideoSustainability, TrackWithinBudgetPlaysCleanly) {
  const int track = std::get<0>(GetParam());
  const double headroom = std::get<1>(GetParam());
  ExperimentRig rig(4, "odyssey");

  // Give the link exactly the track's requirement times the headroom.
  const std::string movie_name = "m";
  MovieMeta movie = VideoServer::MakeDefaultMovie(movie_name, 300);
  const double required =
      VideoWarden::RequiredBandwidth(movie.tracks[track].frame_bytes, movie.fps);
  ASSERT_TRUE(rig.video_server().AddMovie(std::move(movie)).ok());

  VideoPlayerOptions options;
  options.movie = movie_name;
  options.fixed_track = track;
  options.frames_to_play = 300;
  VideoPlayer player(&rig.client(), options);
  rig.Replay(MakeConstant(required * headroom, 2 * kMinute), /*prime=*/false);
  player.Start();
  rig.sim().RunUntil(kMinute);
  ASSERT_TRUE(player.finished());
  if (headroom >= 1.1) {
    EXPECT_LE(player.DropsBetween(0, kMinute), 9);  // <3% even with VBR jitter
  } else {
    // At 60% of required bandwidth, drops must be heavy.
    EXPECT_GE(player.DropsBetween(0, kMinute), 60);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VideoSustainability,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0.6, 1.1, 1.5)));

// --- Trace algebra invariants ---

class TraceInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceInvariants, SerializationRoundTripsRandomTraces) {
  Rng rng(GetParam());
  ReplayTrace trace;
  const int segments = 1 + static_cast<int>(rng.UniformInt(12));
  for (int i = 0; i < segments; ++i) {
    trace.Append(static_cast<Duration>(rng.Uniform(0.1, 90.0) * kSecond),
                 rng.Uniform(1.0, 2000.0) * kKb,
                 static_cast<Duration>(rng.UniformInt(50000)));
  }
  ReplayTrace parsed;
  ASSERT_TRUE(ReplayTrace::Parse(trace.Serialize(), &parsed));
  ASSERT_EQ(parsed.segments().size(), trace.segments().size());
  for (size_t i = 0; i < trace.segments().size(); ++i) {
    // Serialization is decimal text; tolerate rounding at the micro scale.
    EXPECT_NEAR(static_cast<double>(parsed.segments()[i].duration),
                static_cast<double>(trace.segments()[i].duration), 1);
    EXPECT_NEAR(parsed.segments()[i].bandwidth_bps, trace.segments()[i].bandwidth_bps,
                trace.segments()[i].bandwidth_bps * 1e-4);
    EXPECT_EQ(parsed.segments()[i].latency, trace.segments()[i].latency);
  }
  // Concat preserves total duration; scaling preserves it too.
  EXPECT_EQ(trace.Concat(parsed).TotalDuration(), 2 * trace.TotalDuration());
  EXPECT_EQ(trace.ScaledBandwidth(0.5).TotalDuration(), trace.TotalDuration());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceInvariants, ::testing::Values(21, 22, 23, 24, 25));

// --- Determinism across the whole stack ---

class StackDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StackDeterminism, IdenticalSeedsIdenticalEstimates) {
  const auto run = [&](uint64_t seed) {
    ExperimentRig rig(seed, "odyssey");
    BitstreamApp app(&rig.client(), "bitstream");
    rig.Replay(MakeStepDown());
    app.Start();
    rig.sim().RunUntil(70 * kSecond);
    return rig.centralized()->TotalSupply(rig.sim().now());
  };
  EXPECT_DOUBLE_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackDeterminism, ::testing::Values(1, 99, 12345));

// --- Availability decomposes into fair share plus competed-for headroom ---
//
// After *any* interleaving of attach/detach/observe, every availability
// figure equals min(fair share + competed-for headroom share, supply),
// reconstructed here from public accessors alone and compared with exact
// floating-point equality — the incremental model's contract is bit
// identity, not tolerance.

class AvailabilityDecomposition : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AvailabilityDecomposition, ExactlyFairSharePlusCompetedFor) {
  Rng rng(GetParam());
  SupplyModel model;
  std::vector<ConnectionId> ids;
  ConnectionId next = 1;
  Time now = 0;
  for (int i = 0; i < 400; ++i) {
    const double draw = rng.NextDouble();
    if (draw < 0.1 || ids.empty()) {
      ids.push_back(next);
      model.AddConnection(next++);
    } else if (draw < 0.18) {
      const size_t victim = rng.UniformInt(ids.size());
      model.RemoveConnection(ids[victim]);
      ids.erase(ids.begin() + static_cast<ptrdiff_t>(victim));
    } else {
      now += static_cast<Duration>(rng.Uniform(10, 300)) * kMillisecond;
      const ConnectionId c = ids[rng.UniformInt(ids.size())];
      model.OnThroughput(c, {now, rng.Uniform(1.0, 64.0) * kKb,
                             static_cast<Duration>(rng.Uniform(30, 800)) * kMillisecond});
    }
    const double supply = model.TotalSupply();
    const int active = model.ActiveConnectionCount(now);
    // Ascending id order, matching the model's own aggregation; idle
    // connections contribute exactly 0.0, so the sums are bit-identical.
    double total_usage = 0.0;
    for (const ConnectionId c : ids) {
      total_usage += model.UsageRateFor(c, now);
    }
    for (const ConnectionId c : ids) {
      const double availability = model.AvailabilityFor(c, now);
      if (supply <= 0.0) {
        EXPECT_EQ(availability, 0.0);
        continue;
      }
      const double rate = model.UsageRateFor(c, now);
      const int share_ways = active + (rate > 16.0 ? 0 : 1);
      const double fair = supply / static_cast<double>(share_ways < 1 ? 1 : share_ways);
      double expected = fair;
      if (total_usage > 0.0) {
        const double slack = supply > total_usage ? supply - total_usage : 0.0;
        const double sum = fair + slack * (rate / total_usage);
        expected = sum < supply ? sum : supply;
      }
      ASSERT_EQ(availability, expected) << "connection " << c << " at " << now;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvailabilityDecomposition,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- Unregister is the exact inverse of register ---
//
// Pushing a probe connection through AddConnection/RemoveConnection leaves
// every observable bit-identical to its value before the pair, at any point
// in a long random history; and across ten thousand random operations the
// incremental model never drifts from the naive reference.

TEST(RegisterInverseProperty, NoDriftAfterTenThousandRandomOps) {
  Rng rng(4242);
  SupplyModel model;
  NaiveSupplyModel reference;
  std::vector<ConnectionId> ids;
  ConnectionId next = 1;
  Time now = 0;
  for (int i = 0; i < 10000; ++i) {
    const double draw = rng.NextDouble();
    if (draw < 0.1 || ids.empty()) {
      ids.push_back(next);
      model.AddConnection(next);
      reference.AddConnection(next);
      ++next;
    } else if (draw < 0.18) {
      const size_t victim = rng.UniformInt(ids.size());
      model.RemoveConnection(ids[victim]);
      reference.RemoveConnection(ids[victim]);
      ids.erase(ids.begin() + static_cast<ptrdiff_t>(victim));
    } else {
      now += static_cast<Duration>(rng.Uniform(10, 300)) * kMillisecond;
      const ConnectionId c = ids[rng.UniformInt(ids.size())];
      const ThroughputObservation obs{now, rng.Uniform(1.0, 64.0) * kKb,
                                      static_cast<Duration>(rng.Uniform(30, 800)) *
                                          kMillisecond};
      model.OnThroughput(c, obs);
      reference.OnThroughput(c, obs);
    }
    if (i % 250 == 0) {
      const double supply_before = model.TotalSupply();
      const int active_before = model.ActiveConnectionCount(now);
      std::vector<double> avail_before;
      avail_before.reserve(ids.size());
      for (const ConnectionId c : ids) {
        avail_before.push_back(model.AvailabilityFor(c, now));
      }
      const ConnectionId probe = next++;
      model.AddConnection(probe);
      reference.AddConnection(probe);
      model.RemoveConnection(probe);
      reference.RemoveConnection(probe);
      ASSERT_EQ(model.TotalSupply(), supply_before);
      ASSERT_EQ(model.ActiveConnectionCount(now), active_before);
      for (size_t k = 0; k < ids.size(); ++k) {
        ASSERT_EQ(model.AvailabilityFor(ids[k], now), avail_before[k])
            << "connection " << ids[k] << " drifted across a register/unregister pair";
      }
    }
    ASSERT_EQ(model.TotalSupply(), reference.TotalSupply());
    ASSERT_EQ(model.ActiveConnectionCount(now), reference.ActiveConnectionCount(now));
    if (!ids.empty()) {
      const ConnectionId c = ids[rng.UniformInt(ids.size())];
      ASSERT_EQ(model.AvailabilityFor(c, now), reference.AvailabilityFor(c, now));
    }
  }
}

}  // namespace
}  // namespace odyssey
