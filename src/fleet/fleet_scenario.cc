#include "src/fleet/fleet_scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/tracking_window.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/contract.h"
#include "src/core/resource.h"
#include "src/fleet/fleet_node.h"
#include "src/metrics/experiment.h"
#include "src/mobility/waveform_source.h"
#include "src/servers/file_server.h"
#include "src/servers/telemetry_server.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/strategy_registry.h"
#include "src/tracemod/replay_trace.h"
#include "src/wardens/file_warden.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {
namespace {

// Per-node stepped waveform, in KB/s per application; every quarter-horizon
// transition pushes availability outside the apps' [0.7x, 1.3x] windows.
constexpr double kFleetWaveKbps[] = {80.0, 220.0, 40.0, 140.0};

constexpr Duration kFeedPeriod = 50 * kMillisecond;
constexpr Duration kFairnessPeriod = 500 * kMillisecond;
constexpr Duration kReadPeriod = 1 * kSecond;

struct FleetParams {
  int nodes = 2;
  int servers = 2;
  std::string strategy = "odyssey";  // StrategyRegistry name
  bool mobility = false;
  Duration horizon = 8 * kSecond;
  int apps_per_node = 2;
};

// The node's waveform: fixed quarters scaled by a per-node factor in
// [0.6, 1.4), or a motion-generated trace (model rotated per node).  Either
// way a pure function of (params, seed, node).
ReplayTrace NodeWaveform(const FleetParams& params, uint64_t seed, int node) {
  SplitMix64 mix(seed ^ (0x746965725f666cULL + static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  if (params.mobility) {
    MobilityScenarioSpec spec;
    spec.model = static_cast<MobilityModelKind>(node % kMobilityModelKinds);
    spec.layout = (node % 2 == 0) ? BaseStationLayout::kSingleCell : BaseStationLayout::kCellGrid;
    spec.speed_scale = 1.0 + static_cast<double>(node % 3);
    spec.duration = params.horizon + kDrainGrace;
    return MakeMobilityWaveform(spec, mix.Next());
  }
  const double factor = 0.6 + static_cast<double>(mix.Next() >> 11) * 0x1.0p-53 * 0.8;
  const double per_app = static_cast<double>(params.apps_per_node);
  ReplayTrace trace;
  for (const double kbps : kFleetWaveKbps) {
    trace.Append(params.horizon / 4, kbps * 1024.0 * factor * per_app, 10 * kMillisecond);
  }
  return trace;
}

struct AppState : TrackedApp {
  int server = 0;  // server group this app's connection maps to
  Endpoint* endpoint = nullptr;
  double weight = 1.0;  // synthetic-feed share of the node waveform
};

// The campaign's per-node application feed, beside the shared node stack.
struct NodeFeed {
  FleetNode* node = nullptr;
  std::unique_ptr<WindowTracker> windows;
  std::vector<AppState> apps;
  uint64_t tick = 0;
};

class FleetRig {
 public:
  FleetRig(const FleetParams& params, uint64_t seed, TraceRecorder* trace)
      : params_(params), seed_(seed), sim_(seed) {
    ODY_ASSERT(params.servers >= 1 && params.servers <= 8, "fleet rig server count out of range");
    sim_.set_trace(trace);
  }

  TrialMetrics Run() {
    // Wall timing feeds only the stripped wall_* metrics, never the trial.
    // ody-lint: allow(fleet-pod-message)
    const auto wall_start = std::chrono::steady_clock::now();
    Build();
    Start();
    sim_.RunUntil(params_.horizon + kDrainGrace);
    fleet_->Finish(params_.horizon, params_.horizon + kDrainGrace);
    // ody-lint: allow(fleet-pod-message)
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
    return Metrics(wall.count());
  }

 private:
  void Build() {
    file_server_ = std::make_unique<FileServer>(&sim_.rng());
    file_server_->Publish("doc/0", 32.0 * 1024.0);
    telemetry_server_ = std::make_unique<TelemetryServer>(&sim_);
    telemetry_server_->CreateFeed("feed0", 200 * kMillisecond, 100.0, 5.0);
    fleet_ = std::make_unique<Fleet>(&sim_, seed_, params_.strategy, params_.servers);

    feeds_.reserve(static_cast<size_t>(params_.nodes));
    for (int i = 0; i < params_.nodes; ++i) {
      BuildNode(i);
    }
    fleet_->Connect();
  }

  void BuildNode(int index) {
    auto node = std::make_unique<FleetNode>();
    node->waveform = NodeWaveform(params_, seed_, index);
    node->scenario = MirrorScenario(node->waveform, params_.horizon, seed_);
    // Every fourth node (offset 1) rides out a mid-run outage, ending well
    // before the convergence tail.
    if (index % 4 == 1) {
      node->plan.WithSeed(SplitMix64(seed_ ^ (0x6f7574ULL + static_cast<uint64_t>(index))).Next());
      node->plan.WithOutage(params_.horizon / 4, 1 * kSecond);
    }
    const TraceSegment first = node->waveform.At(0);
    std::vector<std::unique_ptr<Warden>> wardens;
    wardens.push_back(std::make_unique<FileWarden>(file_server_.get()));
    wardens.push_back(std::make_unique<TelemetryWarden>(telemetry_server_.get()));
    NodeFeed feed;
    feed.node = fleet_->AddNode(std::move(node), first, std::move(wardens));
    feed.windows = std::make_unique<WindowTracker>(&feed.node->client->viceroy());

    SplitMix64 mix(seed_ ^ (0x61707073ULL + static_cast<uint64_t>(index)));
    for (int a = 0; a < params_.apps_per_node; ++a) {
      AppState app;
      app.id = feed.node->client->RegisterApplication("fleet" + std::to_string(index) + "-" +
                                                      std::to_string(a));
      app.server = a % params_.servers;
      app.endpoint =
          feed.node->client->OpenConnection(app.id, "fleet-s" + std::to_string(app.server));
      app.weight = 0.5 + static_cast<double>(mix.Next() >> 11) * 0x1.0p-53;
      feed.apps.push_back(app);
    }
    feeds_.push_back(std::move(feed));
  }

  void Start() {
    for (NodeFeed& feed : feeds_) {
      FleetNode* node = feed.node;
      node->modulator->Replay(node->waveform);
      node->aggregator->StopAt(params_.horizon);
      node->aggregator->Start();
      for (AppState& app : feed.apps) {
        feed.windows->Register(&app,
                               node->client->CurrentLevel(app.id, ResourceId::kNetworkBandwidth));
      }
    }
    sim_.Post(kFeedPeriod, [this] { Feed(); });
    ScheduleAudits(&sim_, params_.horizon, [this] { fleet_->SampleOracles(); });
    // Fairness sampling skips the first quarter (cold estimators).
    sim_.PostAt(params_.horizon / 4, [this] { SampleFairness(); });
    sim_.Post(kReadPeriod, [this] { ReadSweep(); });
  }

  // Synthetic passive observations, as in the scale rig: each app's
  // connection reports its weighted share of the node waveform once per
  // feed period, with a round trip every tenth tick.
  void Feed() {
    const Time now = sim_.now();
    if (now >= params_.horizon) {
      return;
    }
    const double period_s = DurationToSeconds(kFeedPeriod);
    for (NodeFeed& feed : feeds_) {
      const double rate =
          feed.node->waveform.BandwidthAt(now) / static_cast<double>(params_.apps_per_node);
      int i = 0;
      for (AppState& app : feed.apps) {
        app.endpoint->log().RecordThroughput(now, rate * app.weight * period_s, kFeedPeriod);
        if (static_cast<int>(feed.tick % 10) == i % 10) {
          app.endpoint->log().RecordRoundTrip(
              now, 10 * kMillisecond + static_cast<Duration>(i) * 100);
        }
        ++i;
      }
      ++feed.tick;
    }
    sim_.Post(kFeedPeriod, [this] { Feed(); });
  }

  // Real bytes through the warden path: each node's first app re-reads the
  // shared document once a second, so RPC retries and outage handling stay
  // exercised alongside the synthetic feed.
  void ReadSweep() {
    if (sim_.now() >= params_.horizon) {
      return;
    }
    for (const NodeFeed& feed : feeds_) {
      feed.node->client->Read(feed.apps.front().id, std::string(kOdysseyRoot) + "files/doc/0",
                              [](Status, std::string) {});
    }
    sim_.Post(kReadPeriod, [this] { ReadSweep(); });
  }

  // Fairness across the fleet, per server: each node's claim on server s is
  // the sum of its mapped apps' current levels.  Jain index over the claims
  // measures fairness; summed claims over the server's capacity share
  // (total fleet nominal bandwidth / servers) measures overclaim.
  void SampleFairness() {
    const Time now = sim_.now();
    if (now > params_.horizon) {
      return;
    }
    double fleet_nominal = 0.0;
    for (const NodeFeed& feed : feeds_) {
      fleet_nominal += feed.node->waveform.BandwidthAt(now);
    }
    const double server_capacity = fleet_nominal / static_cast<double>(params_.servers);
    for (int s = 0; s < params_.servers; ++s) {
      double sum = 0.0;
      double sum_sq = 0.0;
      for (const NodeFeed& feed : feeds_) {
        double claim = 0.0;
        for (const AppState& app : feed.apps) {
          if (app.server == s) {
            claim += feed.node->client->CurrentLevel(app.id, ResourceId::kNetworkBandwidth);
          }
        }
        sum += claim;
        sum_sq += claim * claim;
      }
      auto& stats = fairness_[static_cast<size_t>(s)];
      if (sum_sq > 0.0) {
        stats.jain_sum += (sum * sum) / (static_cast<double>(feeds_.size()) * sum_sq);
        ++stats.jain_samples;
      }
      if (server_capacity > 0.0) {
        stats.overclaim_max = std::max(stats.overclaim_max, sum / server_capacity);
        stats.overclaim_sum += sum / server_capacity;
        ++stats.overclaim_samples;
      }
    }
    sim_.Post(kFairnessPeriod, [this] { SampleFairness(); });
  }

  TrialMetrics Metrics(double wall_seconds) {
    const double events = static_cast<double>(sim_.events_processed());
    double upcalls = 0.0;
    double latency_mean_sum = 0.0;
    double latency_max_ms = 0.0;
    uint64_t violations = fleet_->oracle().violation_count();
    uint64_t windows_registered = 0;
    for (const NodeFeed& feed : feeds_) {
      windows_registered += feed.windows->registered();
    }
    for (const auto& node : fleet_->nodes()) {
      const UpcallDispatcher& dispatcher = node->client->viceroy().upcalls();
      upcalls += static_cast<double>(dispatcher.delivered_count());
      latency_mean_sum += dispatcher.latency_mean_us() / 1000.0;
      latency_max_ms = std::max(latency_max_ms, DurationToMillis(dispatcher.latency_max()));
      violations += node->oracle->violation_count();
    }
    TrialMetrics metrics{
        {"sim_events", events, MetricDirection::kEither},
        {"upcalls", upcalls, MetricDirection::kEither},
        {"windows_registered", static_cast<double>(windows_registered),
         MetricDirection::kEither},
        {"upcall_latency_mean_ms", latency_mean_sum / static_cast<double>(feeds_.size()),
         MetricDirection::kLowerIsBetter},
        {"upcall_latency_max_ms", latency_max_ms, MetricDirection::kLowerIsBetter},
        {"fleet_msgs", static_cast<double>(fleet_->dispatcher().messages_delivered()),
         MetricDirection::kEither},
        {"agg_spread_pct", fleet_->oracle().final_spread_pct(), MetricDirection::kLowerIsBetter},
        {"oracle_violations", static_cast<double>(violations), MetricDirection::kLowerIsBetter},
    };
    for (int s = 0; s < params_.servers; ++s) {
      const auto& stats = fairness_[static_cast<size_t>(s)];
      metrics.push_back({"fairness_s" + std::to_string(s),
                         stats.jain_samples > 0
                             ? stats.jain_sum / static_cast<double>(stats.jain_samples)
                             : 0.0,
                         MetricDirection::kHigherIsBetter});
      metrics.push_back({"overclaim_peak_s" + std::to_string(s), stats.overclaim_max,
                         MetricDirection::kLowerIsBetter});
      metrics.push_back({"overclaim_mean_s" + std::to_string(s),
                         stats.overclaim_samples > 0
                             ? stats.overclaim_sum / static_cast<double>(stats.overclaim_samples)
                             : 0.0,
                         MetricDirection::kLowerIsBetter});
    }
    // wall_* metrics depend on the machine and are stripped by
    // `ody_bench run --strip-wall-out` before CI's byte comparison.
    metrics.push_back({"wall_seconds", wall_seconds, MetricDirection::kEither});
    metrics.push_back({"wall_events_per_sec", wall_seconds > 0.0 ? events / wall_seconds : 0.0,
                       MetricDirection::kHigherIsBetter});
    return metrics;
  }

  struct FairnessStats {
    double jain_sum = 0.0;
    int jain_samples = 0;
    double overclaim_max = 0.0;
    double overclaim_sum = 0.0;
    int overclaim_samples = 0;
  };

  const FleetParams params_;
  const uint64_t seed_;
  Simulation sim_;
  std::unique_ptr<FileServer> file_server_;
  std::unique_ptr<TelemetryServer> telemetry_server_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<NodeFeed> feeds_;
  // Indexed by server group; the rig caps servers well below this.
  FairnessStats fairness_[8] = {};
};

}  // namespace

void RegisterFleetScenarios(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fleet_share";
  scenario.description =
      "N viceroys sharing M servers through fleet estimate aggregation, per strategy and "
      "waveform family, with all fuzzing oracles on";

  const auto add = [&scenario](const FleetParams& params) {
    // Appended rather than `"n" + std::to_string(...)`: GCC 12 misreports
    // that form under -Wrestrict (a known false positive) once inlined here.
    std::string name = "n";
    name += std::to_string(params.nodes) + "_" +
            StrategyRegistry::Builtin().Find(params.strategy)->label + "_" +
            (params.mobility ? "mob" : "fixed");
    scenario.variants.push_back(ScenarioVariant{
        name, [params](uint64_t seed, TraceRecorder* trace) {
          return FleetRig(params, seed, trace).Run();
        }});
  };

  for (const int nodes : {2, 8, 32, 128}) {
    for (const std::string& strategy : StrategyRegistry::Builtin().Names()) {
      for (const bool mobility : {false, true}) {
        FleetParams params;
        params.nodes = nodes;
        params.strategy = strategy;
        params.mobility = mobility;
        add(params);
      }
    }
  }

  const Status status = registry->Register(std::move(scenario));
  ODY_ASSERT(status.ok(), "fleet scenario registration failed");
}

}  // namespace odyssey
