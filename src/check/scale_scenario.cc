#include "src/check/scale_scenario.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/tracking_window.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/contract.h"
#include "src/core/resource.h"
#include "src/core/viceroy.h"
#include "src/metrics/experiment.h"
#include "src/rpc/endpoint.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/centralized.h"

namespace odyssey {
namespace {

// The stepped supply waveform, in KB/s.  Each level holds for a quarter of
// the horizon; every transition moves availability far outside the [0.7x,
// 1.3x] windows the applications hold, so each one triggers a full
// re-registration storm across all N apps.
constexpr double kWaveKbps[] = {60.0, 200.0, 30.0, 120.0};

// Every kCancelSweepPeriod, kCancelSweepApps apps are recycled (cancel +
// re-register), exercising request-table slot reuse under load.
constexpr Duration kCancelSweepPeriod = 500 * kMillisecond;
constexpr int kCancelSweepApps = 256;
// Apps holding a second (idle) connection, so the scale rig exercises more
// than one bucket of the strategy's connection-count histogram.
constexpr int kMultiConnectionApps = 8;

struct ScaleParams {
  int apps = 100;
  // Connections that receive synthetic throughput observations; the rest
  // stay idle, as in a real deployment where most clients are quiescent.
  int hot_connections = 32;
  Duration horizon = 10 * kSecond;
  Duration feed_period = 50 * kMillisecond;
  // OracleSet::set_max_audited_connections (0 = audit everything).
  size_t max_audited_connections = 0;
  bool reference = false;  // RigSpec::reference
};

// The FuzzScenario handed to OracleSet: its segments mirror the rig's
// waveform so the byte-conservation bound is the true capacity integral
// (the rig never moves bytes through the link, so the bound is slack).
FuzzScenario SyntheticScenario(const ScaleParams& params, uint64_t seed) {
  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.horizon = params.horizon;
  for (const double kbps : kWaveKbps) {
    const double bps = kbps * 1024.0 * static_cast<double>(params.hot_connections);
    scenario.segments.push_back(TraceSegment{params.horizon / 4, bps, 10 * kMillisecond});
  }
  return scenario;
}

class ScaleRig {
 public:
  ScaleRig(const ScaleParams& params, uint64_t seed, TraceRecorder* trace)
      : params_(params),
        scenario_(SyntheticScenario(params, seed)),
        rig_(Spec(scenario_, params.reference, trace)),
        sim_(rig_.sim()),
        viceroy_(rig_.client().viceroy()),
        strategy_(viceroy_.strategy().audit_surface()),
        oracle_(scenario_, &sim_, &viceroy_, strategy_, &rig_.link()),
        windows_(&viceroy_) {
    oracle_.set_max_audited_connections(params.max_audited_connections);
  }

  TrialMetrics Run() {
    const auto wall_start = std::chrono::steady_clock::now();
    // Armed first, so the oracle's window observer sees Build()'s windows.
    oracle_.Arm(/*clock=*/true);
    Build();
    sim_.Post(params_.feed_period, [this] { Feed(); });
    ScheduleAudits(&sim_, params_.horizon, [this] { oracle_.Sample(); });
    sim_.Post(kCancelSweepPeriod, [this] { CancelSweep(); });
    sim_.RunUntil(params_.horizon + kDrainGrace);
    oracle_.Finish();
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
    return Metrics(wall.count());
  }

 private:
  // No servers: the apps' connections are the rig's only traffic sources.
  static RigSpec Spec(const FuzzScenario& scenario, bool reference, TraceRecorder* trace) {
    RigSpec spec;
    spec.seed = scenario.seed;
    spec.link = scenario.segments.front();
    spec.reference = reference;
    spec.servers = RigServers::kNone;
    spec.trace = trace;
    return spec;
  }

  void Build() {
    Rng rng(sim_.rng().NextU64());
    OdysseyClient& client = rig_.client();
    apps_.reserve(params_.apps);
    endpoints_.reserve(params_.apps);
    for (int i = 0; i < params_.apps; ++i) {
      TrackedApp app;
      app.id = client.RegisterApplication("scale" + std::to_string(i));
      endpoints_.push_back(client.OpenConnection(app.id, "server"));
      apps_.push_back(app);
    }
    // A handful of two-connection apps: their idle availability is 2x the
    // per-connection fair share, populating a second level of the indexed
    // re-evaluation's idle probe.
    for (int i = 0; i < std::min(kMultiConnectionApps, params_.apps); ++i) {
      client.OpenConnection(apps_[i].id, "server2");
    }
    const int hot = std::min(params_.hot_connections, params_.apps);
    weights_.reserve(hot);
    for (int i = 0; i < hot; ++i) {
      weights_.push_back(rng.Uniform(0.5, 1.5));
    }
    for (TrackedApp& app : apps_) {
      windows_.Register(&app, viceroy_.CurrentLevel(app.id, ResourceId::kNetworkBandwidth));
    }
  }

  double WaveRateBps(Time now) const {
    const Duration step = params_.horizon / 4;
    const size_t index =
        std::min<size_t>(step == 0 ? 0 : static_cast<size_t>(now / step), std::size(kWaveKbps) - 1);
    return kWaveKbps[index] * 1024.0;
  }

  // Synthetic passive observations: each hot connection reports one window
  // per feed period at its share of the waveform rate, with a round trip
  // every tenth tick.  Feeding the logs directly (rather than moving real
  // traffic) keeps the trial's cost concentrated in the estimator and
  // re-evaluation paths this campaign measures.
  void Feed() {
    const Time now = sim_.now();
    if (now >= params_.horizon) {
      return;
    }
    const double rate = WaveRateBps(now);
    const double period_s = DurationToSeconds(params_.feed_period);
    const int hot = static_cast<int>(weights_.size());
    for (int i = 0; i < hot; ++i) {
      endpoints_[i]->log().RecordThroughput(now, rate * weights_[i] * period_s,
                                            params_.feed_period);
      if (static_cast<int>(tick_ % 10) == i % 10) {
        endpoints_[i]->log().RecordRoundTrip(now,
                                             10 * kMillisecond + static_cast<Duration>(i) * 100);
      }
    }
    ++tick_;
    sim_.Post(params_.feed_period, [this] { Feed(); });
  }

  // Rotates through the apps cancelling and immediately re-registering
  // their windows, so request-table slots are freed and reused throughout
  // the run.  A cancel that fails lost the race with an in-flight upcall,
  // whose handler re-registers instead.
  void CancelSweep() {
    if (sim_.now() >= params_.horizon) {
      return;
    }
    const int sweep = std::min<int>(kCancelSweepApps, static_cast<int>(apps_.size()));
    for (int i = 0; i < sweep; ++i) {
      TrackedApp& app = apps_[cancel_cursor_++ % apps_.size()];
      if (app.request == 0) {
        continue;
      }
      if (viceroy_.Cancel(app.request).ok()) {
        app.request = 0;
        windows_.Register(&app, viceroy_.CurrentLevel(app.id, ResourceId::kNetworkBandwidth));
      }
    }
    sim_.Post(kCancelSweepPeriod, [this] { CancelSweep(); });
  }

  TrialMetrics Metrics(double wall_seconds) {
    const UpcallDispatcher& upcalls = viceroy_.upcalls();
    const double events = static_cast<double>(sim_.events_processed());
    return TrialMetrics{
        {"sim_events", events, MetricDirection::kEither},
        {"upcalls", static_cast<double>(upcalls.delivered_count()), MetricDirection::kEither},
        {"windows_registered", static_cast<double>(windows_.registered()),
         MetricDirection::kEither},
        {"upcall_latency_mean_ms", upcalls.latency_mean_us() / 1000.0,
         MetricDirection::kLowerIsBetter},
        {"upcall_latency_max_ms", DurationToMillis(upcalls.latency_max()),
         MetricDirection::kLowerIsBetter},
        {"model_scan_ops", static_cast<double>(strategy_->supply_model().scan_ops()),
         MetricDirection::kLowerIsBetter},
        {"oracle_violations", static_cast<double>(oracle_.violation_count()),
         MetricDirection::kLowerIsBetter},
        // wall_* metrics depend on the machine and are stripped by
        // `ody_bench run --strip-wall-out` before CI's byte comparison.
        {"wall_seconds", wall_seconds, MetricDirection::kEither},
        {"wall_events_per_sec", wall_seconds > 0.0 ? events / wall_seconds : 0.0,
         MetricDirection::kHigherIsBetter},
    };
  }

  const ScaleParams params_;
  const FuzzScenario scenario_;
  ExperimentRig rig_;
  Simulation& sim_;
  Viceroy& viceroy_;
  std::vector<Endpoint*> endpoints_;  // one per app, in app order; owned by the client
  CentralizedStrategy* const strategy_;
  OracleSet oracle_;
  WindowTracker windows_;
  std::vector<TrackedApp> apps_;
  std::vector<double> weights_;
  uint64_t tick_ = 0;
  size_t cancel_cursor_ = 0;
};

TrialMetrics RunScaleTrial(const ScaleParams& params, uint64_t seed, TraceRecorder* trace) {
  ScaleRig rig(params, seed, trace);
  return rig.Run();
}

ScaleParams VariantParams(int apps, int hot, size_t audited) {
  ScaleParams params;
  params.apps = apps;
  params.hot_connections = hot;
  params.max_audited_connections = audited;
  return params;
}

}  // namespace

void RegisterScaleScenarios(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "scale_core";
  scenario.description =
      "viceroy hot core under N re-registering windows with all fuzzing oracles on";

  const auto add = [&scenario](const std::string& name, const ScaleParams& params) {
    scenario.variants.push_back(ScenarioVariant{
        name, [params](uint64_t seed, TraceRecorder* trace) {
          return RunScaleTrial(params, seed, trace);
        }});
  };

  add("n100", VariantParams(100, 32, 0));
  add("n1k", VariantParams(1000, 64, 0));
  add("n10k", VariantParams(10000, 64, 2048));
  add("n100k", VariantParams(100000, 64, 2048));

  // The pre-scale reference stack at N=1k, under every oracle: the naive
  // supply model's O(connections) recomputation per query makes every
  // re-evaluation quadratic, so the variant runs a short schedule whose
  // model_scan_ops pin the reference's cost (scale_differential_test holds
  // its answers equal to the incremental model's).
  ScaleParams naive = VariantParams(1000, 2, 64);
  naive.reference = true;
  naive.horizon = 1 * kSecond;
  naive.feed_period = 250 * kMillisecond;
  add("n1k_naive", naive);

  const Status status = registry->Register(std::move(scenario));
  ODY_ASSERT(status.ok(), "scale scenario registration failed");
}

}  // namespace odyssey
