// The strategy-conformance kit: what every registered bandwidth strategy
// must guarantee, as reusable workloads and rigs.
//
// The kit is the contract behind StrategyRegistry: a strategy that passes
// it can be selected by scenarios, ody_fuzz and ody_bench without weakening
// any invariant the rest of the system relies on.  Three layers:
//
//   * Shared workloads (ConformanceWorkload, DegenerateWorkload): fixed,
//     fully explicit FuzzScenarios — no generator draws — so every strategy
//     faces the identical op schedule and two runs differ only in the
//     strategy under test.  They execute through RunFuzzScenario with the
//     full OracleSet attached and a DifferentialLog capturing every
//     delivered upcall and every sampled availability figure bit-exactly.
//
//   * A direct viceroy rig (ConformanceRig): an ExperimentRig with no
//     servers and a per-app upcall census, for the lifecycle assertions
//     that need to interleave requests, cancels and stimuli at exact points
//     — no upcall after cancel, no upcall (or registration) after an
//     admission reject.
//
//   * A stimulus (ConformanceRig::Stimulate) that moves every registered
//     strategy's availability estimate: it both replays a waveform step
//     through the modulator (blind optimism's source) and feeds synthetic
//     throughput observations into the endpoint logs (what the estimator
//     family consumes), so lifecycle tests don't special-case strategies.
//
// Used by strategy_conformance_test.cc (parameterized over the builtin
// registry) and available to future strategies' own suites.

#ifndef TESTS_STRATEGY_CONFORMANCE_H_
#define TESTS_STRATEGY_CONFORMANCE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/core/resource.h"
#include "src/core/viceroy.h"
#include "src/metrics/experiment.h"
#include "src/rpc/endpoint.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {
namespace conformance {

inline FuzzOp RequestOp(Time at, double lo_frac, double hi_frac) {
  FuzzOp op;
  op.at = at;
  op.kind = FuzzOpKind::kRequest;
  op.window_lo_frac = lo_frac;
  op.window_hi_frac = hi_frac;
  return op;
}

inline FuzzOp TsopOp(Time at, int variant, double magnitude) {
  FuzzOp op;
  op.at = at;
  op.kind = FuzzOpKind::kTsop;
  op.variant = variant;
  op.magnitude = magnitude;
  return op;
}

inline FuzzOp CancelOp(Time at, int variant) {
  FuzzOp op;
  op.at = at;
  op.kind = FuzzOpKind::kCancel;
  op.variant = variant;
  return op;
}

inline TraceSegment Segment(Duration duration, double bandwidth_bps) {
  return TraceSegment{duration, bandwidth_bps, 10 * kMillisecond};
}

// The shared multi-app workload: three wardens over a stepped waveform with
// window churn, sized so every strategy sees supply swings, contention and
// request-table reuse inside a second of wall clock.
inline FuzzScenario ConformanceWorkload(const std::string& strategy, uint64_t seed = 1997) {
  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.strategy = strategy;
  scenario.horizon = 8 * kSecond;
  scenario.segments = {
      Segment(2 * kSecond, 900.0 * 1024.0),
      Segment(2 * kSecond, 250.0 * 1024.0),
      Segment(2 * kSecond, 600.0 * 1024.0),
      Segment(2 * kSecond, 900.0 * 1024.0),
  };
  const FuzzWardenKind wardens[] = {FuzzWardenKind::kVideo, FuzzWardenKind::kWeb,
                                    FuzzWardenKind::kSpeech};
  for (int i = 0; i < 3; ++i) {
    FuzzApp app;
    app.warden = wardens[i];
    app.start = (100 + 200 * static_cast<Time>(i)) * kMillisecond;
    app.ops.push_back(RequestOp(app.start + 200 * kMillisecond, 0.7, 1.3));
    for (Time at = app.start + 400 * kMillisecond; at < 7 * kSecond; at += 600 * kMillisecond) {
      app.ops.push_back(TsopOp(at, i + static_cast<int>(at / (600 * kMillisecond)), 0.2 + 0.1 * i));
    }
    app.ops.push_back(CancelOp(4 * kSecond + 100 * static_cast<Time>(i) * kMillisecond, i));
    app.ops.push_back(RequestOp(4 * kSecond + 400 * kMillisecond, 0.7, 1.3));
    scenario.apps.push_back(std::move(app));
  }
  return scenario;
}

// The degenerate workload: one application, one connection (the bitstream
// warden opens exactly one), constant supply, windows wide enough that the
// admission broker never accumulates commitments beyond the link.  On this
// input every audited strategy must be bit-identical to the seed
// centralized strategy: one flow on one server leaves the congestion
// manager's hierarchy with a single leaf, and leaves the broker nothing to
// degrade or reject.
inline FuzzScenario DegenerateWorkload(const std::string& strategy, uint64_t seed = 1997) {
  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.strategy = strategy;
  scenario.horizon = 6 * kSecond;
  scenario.segments = {Segment(6 * kSecond, 400.0 * 1024.0)};
  FuzzApp app;
  app.warden = FuzzWardenKind::kBitstream;
  app.start = 100 * kMillisecond;
  app.ops.push_back(RequestOp(300 * kMillisecond, 0.5, 1.6));
  for (Time at = 500 * kMillisecond; at < 5 * kSecond; at += 500 * kMillisecond) {
    app.ops.push_back(TsopOp(at, static_cast<int>(at / (500 * kMillisecond)), 0.3));
  }
  app.ops.push_back(CancelOp(3 * kSecond, 0));
  app.ops.push_back(RequestOp(3300 * kMillisecond, 0.5, 1.6));
  scenario.apps.push_back(std::move(app));
  return scenario;
}

struct ConformanceRun {
  FuzzRunResult result;
  DifferentialLog log;
};

inline ConformanceRun Run(const FuzzScenario& scenario) {
  ConformanceRun run;
  FuzzRunOptions options;
  options.differential = &run.log;
  run.result = RunFuzzScenario(scenario, options);
  return run;
}

// A direct viceroy rig (an ExperimentRig with no servers) with a per-app
// upcall census, for lifecycle assertions the scenario runner cannot time
// precisely.
class ConformanceRig {
 public:
  explicit ConformanceRig(const std::string& strategy_name, uint64_t seed = 7)
      : rig_(Spec(strategy_name, seed)) {
    viceroy().upcalls().set_delivery_observer(
        [this](AppId app, uint64_t, RequestId, ResourceId, double, Time) {
          upcalls_by_app_[app] += 1;  // ody_lint: owned-capture
        });
  }

  ~ConformanceRig() { viceroy().upcalls().set_delivery_observer({}); }

  // Registers |name| with one connection to |server|.
  AppId AddApp(const std::string& name, const std::string& server) {
    const AppId app = rig_.client().RegisterApplication(name);
    endpoints_.push_back(rig_.client().OpenConnection(app, server));
    return app;
  }

  // Registers a bandwidth window around the app's current level.
  RequestResult RequestWindow(AppId app, double lo_frac, double hi_frac) {
    const double level = viceroy().CurrentLevel(app, ResourceId::kNetworkBandwidth);
    ResourceDescriptor descriptor;
    descriptor.resource = ResourceId::kNetworkBandwidth;
    descriptor.lower = level * lo_frac;
    descriptor.upper = level * hi_frac + 1.0;
    descriptor.handler = [](RequestId, ResourceId, double) {};
    return viceroy().Request(app, descriptor);
  }

  // Makes every strategy's availability estimate move: feeds |rate_bps|
  // throughput observations into every endpoint log for a second of
  // virtual time, and replays a waveform step to the same rate so the
  // modulator-driven strategy moves too.  Drains the simulation after.
  void Stimulate(double rate_bps) {
    ReplayTrace wave;
    wave.Append(TraceSegment{kSecond, rate_bps, 10 * kMillisecond});
    rig_.modulator().Replay(wave);
    const Duration period = 50 * kMillisecond;
    for (int tick = 1; tick <= 20; ++tick) {
      sim().Post(tick * period, [this, rate_bps, period] {
        const Time now = sim().now();
        for (Endpoint* endpoint : endpoints_) {
          endpoint->log().RecordThroughput(now, rate_bps * DurationToSeconds(period), period);
          endpoint->log().RecordRoundTrip(now, 20 * kMillisecond);
        }
      });
    }
    sim().Run();
  }

  uint64_t UpcallsFor(AppId app) const {
    const auto it = upcalls_by_app_.find(app);
    return it == upcalls_by_app_.end() ? 0 : it->second;
  }

  Simulation& sim() { return rig_.sim(); }
  Viceroy& viceroy() { return rig_.client().viceroy(); }
  BandwidthStrategy& strategy() { return viceroy().strategy(); }

  static constexpr double kLinkBps = 200.0 * 1024.0;

 private:
  static RigSpec Spec(const std::string& strategy_name, uint64_t seed) {
    RigSpec spec;
    spec.seed = seed;
    spec.strategy = strategy_name;
    spec.link = TraceSegment{0, kLinkBps, 10 * kMillisecond};
    spec.servers = RigServers::kNone;
    return spec;
  }

  ExperimentRig rig_;
  std::vector<Endpoint*> endpoints_;  // owned by the rig's client
  std::map<AppId, uint64_t> upcalls_by_app_;
};

}  // namespace conformance
}  // namespace odyssey

#endif  // TESTS_STRATEGY_CONFORMANCE_H_
