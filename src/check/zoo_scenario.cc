#include "src/check/zoo_scenario.h"

#include <string>
#include <utility>
#include <vector>

#include "src/apps/tracking_window.h"
#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/core/contract.h"
#include "src/mobility/radio_environment.h"
#include "src/mobility/waveform_source.h"
#include "src/sim/time.h"
#include "src/strategies/strategy_registry.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {
namespace {

// The workload shapes.  Each builds a fully explicit FuzzScenario — no
// generator draws — so every strategy faces the identical op schedule and
// the only degree of freedom per trial is the seed (server randomness, and
// the mobility cell's track).
enum class ZooShape { kSupply, kDemand, kConcurrent, kMobility };

constexpr const char* kShapeNames[] = {"supply", "demand", "concurrent", "mob"};

// A window registration op.  The paper's applications hold windows of
// tolerance around their current level; these fractions are the tracking
// window's bands.
FuzzOp RequestOp(Time at) {
  FuzzOp op;
  op.at = at;
  op.kind = FuzzOpKind::kRequest;
  op.window_lo_frac = WindowTracker::kLowerFactor;
  op.window_hi_frac = WindowTracker::kUpperFactor;
  return op;
}

FuzzOp TsopOp(Time at, int variant, double magnitude) {
  FuzzOp op;
  op.at = at;
  op.kind = FuzzOpKind::kTsop;
  op.variant = variant;
  op.magnitude = magnitude;
  return op;
}

FuzzOp CancelOp(Time at, int variant) {
  FuzzOp op;
  op.at = at;
  op.kind = FuzzOpKind::kCancel;
  op.variant = variant;
  return op;
}

// One application: a window registered shortly after start, type-specific
// operations every half second, a mid-life cancel + re-register so the
// request table churns, and a late window for the drain phase to consume.
FuzzApp MakeApp(FuzzWardenKind warden, Time start, Duration active, int salt) {
  FuzzApp app;
  app.warden = warden;
  app.start = start;
  app.ops.push_back(RequestOp(start + 200 * kMillisecond));
  const Time mid = start + active / 2;
  for (Time at = start + 400 * kMillisecond; at < start + active; at += 500 * kMillisecond) {
    app.ops.push_back(TsopOp(at, salt + static_cast<int>(at / (500 * kMillisecond)),
                             0.1 + 0.13 * static_cast<double>(salt % 7)));
  }
  app.ops.push_back(CancelOp(mid, salt));
  app.ops.push_back(RequestOp(mid + 300 * kMillisecond));
  return app;
}

TraceSegment Segment(Duration duration, double bandwidth_bps) {
  return TraceSegment{duration, bandwidth_bps, 10 * kMillisecond};
}

// Fig-8 shape: generous supply, a hard step down to a quarter, a partial
// recovery and a final restoration, against two adaptive consumers.
void BuildSupplyCell(FuzzScenario* scenario) {
  scenario->horizon = 12 * kSecond;
  scenario->segments = {
      Segment(3 * kSecond, 1200.0 * 1024.0),
      Segment(3 * kSecond, 300.0 * 1024.0),
      Segment(3 * kSecond, 700.0 * 1024.0),
      Segment(3 * kSecond, 1200.0 * 1024.0),
  };
  scenario->apps.push_back(MakeApp(FuzzWardenKind::kVideo, 100 * kMillisecond, 11 * kSecond, 1));
  scenario->apps.push_back(MakeApp(FuzzWardenKind::kWeb, 300 * kMillisecond, 11 * kSecond, 2));
}

// Fig-9 shape: constant supply, demand churn — four consumers joining in a
// stagger and leaving early, so the arbiter's per-app shares keep moving
// while the link never does.
void BuildDemandCell(FuzzScenario* scenario) {
  scenario->horizon = 10 * kSecond;
  scenario->segments = {Segment(10 * kSecond, 800.0 * 1024.0)};
  const FuzzWardenKind wardens[] = {FuzzWardenKind::kVideo, FuzzWardenKind::kSpeech,
                                    FuzzWardenKind::kFile, FuzzWardenKind::kTelemetry};
  for (int i = 0; i < 4; ++i) {
    scenario->apps.push_back(MakeApp(wardens[i], (1 + 2 * static_cast<Time>(i)) * kSecond,
                                     (7 - static_cast<Duration>(i)) * kSecond, 3 + i));
  }
}

// Fig-14 shape: all six wardens live at once over a mildly varying
// waveform — the widest concurrency the single-node rig supports, and the
// cell where admission control actually has contention to arbitrate.
void BuildConcurrentCell(FuzzScenario* scenario) {
  scenario->horizon = 10 * kSecond;
  scenario->segments = {
      Segment(4 * kSecond, 900.0 * 1024.0),
      Segment(3 * kSecond, 500.0 * 1024.0),
      Segment(3 * kSecond, 900.0 * 1024.0),
  };
  for (int i = 0; i < kFuzzWardenKinds; ++i) {
    scenario->apps.push_back(MakeApp(static_cast<FuzzWardenKind>(i),
                                     (100 + 150 * static_cast<Time>(i)) * kMillisecond,
                                     9 * kSecond, 10 + i));
  }
}

// Mobility shape: the waveform comes from a pedestrian random-waypoint
// track through a cell grid (DESIGN.md §14), so the zoo covers the shadow
// and cell-edge shapes the hand-built cells never produce.  The track is
// the trial seed's, making this the one cell whose waveform varies across
// trials — deliberately, since agility under motion is the paper's point.
void BuildMobilityCell(FuzzScenario* scenario, uint64_t seed) {
  scenario->horizon = 12 * kSecond;
  MobilityScenarioSpec spec;
  spec.model = MobilityModelKind::kRandomWaypoint;
  spec.layout = BaseStationLayout::kCellGrid;
  spec.speed_scale = 2.0;
  spec.duration = scenario->horizon;
  spec.sample_period = 500 * kMillisecond;
  scenario->segments = MakeMobilityWaveform(spec, seed).segments();
  scenario->apps.push_back(
      MakeApp(FuzzWardenKind::kBitstream, 100 * kMillisecond, 11 * kSecond, 20));
  scenario->apps.push_back(MakeApp(FuzzWardenKind::kWeb, 400 * kMillisecond, 11 * kSecond, 21));
}

FuzzScenario BuildCell(ZooShape shape, const std::string& strategy, uint64_t seed) {
  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.strategy = strategy;
  switch (shape) {
    case ZooShape::kSupply:
      BuildSupplyCell(&scenario);
      break;
    case ZooShape::kDemand:
      BuildDemandCell(&scenario);
      break;
    case ZooShape::kConcurrent:
      BuildConcurrentCell(&scenario);
      break;
    case ZooShape::kMobility:
      BuildMobilityCell(&scenario, seed);
      break;
  }
  return scenario;
}

TrialMetrics RunCell(ZooShape shape, const std::string& strategy, uint64_t seed,
                     TraceRecorder* trace) {
  const FuzzScenario scenario = BuildCell(shape, strategy, seed);
  FuzzRunOptions options;
  options.trace = trace;
  const FuzzRunResult result = RunFuzzScenario(scenario, options);
  return TrialMetrics{
      {"oracle_violations", static_cast<double>(result.violation_count),
       MetricDirection::kLowerIsBetter},
      {"upcalls", static_cast<double>(result.upcalls_delivered), MetricDirection::kEither},
      {"requests_granted", static_cast<double>(result.requests_granted),
       MetricDirection::kEither},
      {"requests_denied", static_cast<double>(result.requests_denied), MetricDirection::kEither},
      {"admission_rejects", static_cast<double>(result.admission_rejects),
       MetricDirection::kEither},
      {"cancels_ok", static_cast<double>(result.cancels_ok), MetricDirection::kEither},
      {"bytes_delivered_kb", result.bytes_delivered / 1024.0, MetricDirection::kEither},
  };
}

}  // namespace

void RegisterZooScenarios(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "strategy_zoo";
  scenario.description =
      "Every registered bandwidth strategy through the supply-step, demand-churn, "
      "six-warden and mobility cells, with all fuzzing oracles on";
  // One row per registered strategy: a new registry entry joins the grid.
  for (const std::string& strategy : StrategyRegistry::Builtin().Names()) {
    const std::string& label = StrategyRegistry::Builtin().Find(strategy)->label;
    for (int s = 0; s < 4; ++s) {
      const ZooShape shape = static_cast<ZooShape>(s);
      scenario.variants.push_back(ScenarioVariant{
          label + "_" + kShapeNames[s], [shape, strategy](uint64_t seed, TraceRecorder* trace) {
            return RunCell(shape, strategy, seed, trace);
          }});
    }
  }
  const Status status = registry->Register(std::move(scenario));
  ODY_ASSERT(status.ok(), "zoo scenario registration failed");
}

}  // namespace odyssey
