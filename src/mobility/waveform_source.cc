#include "src/mobility/waveform_source.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/random.h"

namespace odyssey {
namespace {

// Stream tag separating the waveform pipeline's seed derivations from every
// other consumer of a trial seed.
constexpr uint64_t kWaveformTag = 0x6f64796d6f62ULL;  // "odymob"

// Samples position -> tier every spec.sample_period and merges runs of equal
// parameters into segments summing to exactly spec.duration.
ReplayTrace SampleWaveform(const MobilityModel& model, const RadioEnvironment& environment,
                           const MobilityScenarioSpec& spec) {
  ReplayTrace trace;
  if (spec.duration <= 0) {
    return trace;
  }
  const Duration period = spec.sample_period < 1 ? 1 : spec.sample_period;
  TraceSegment current;
  bool have_segment = false;
  Time t = 0;
  while (t < spec.duration) {
    const Duration span = std::min(period, spec.duration - t);
    const BandwidthTier& tier = environment.TierAt(model.PositionAt(t));
    if (have_segment && tier.bandwidth_bps == current.bandwidth_bps &&
        tier.latency == current.latency) {
      current.duration += span;
    } else {
      if (have_segment) {
        trace.Append(current);
      }
      current = TraceSegment{span, tier.bandwidth_bps, tier.latency};
      have_segment = true;
    }
    t += span;
  }
  if (have_segment) {
    trace.Append(current);
  }
  if (!trace.empty() && trace.segments().back().bandwidth_bps <= 0.0) {
    // The track ended inside a radio shadow.  The Modulator holds the final
    // segment forever, so a dead tail would strand every transfer still in
    // flight at the end of the trace; the fuzzer's drain guarantee (and the
    // hand-rolled generator's "final segment has positive bandwidth" rule)
    // depend on this patch.  Grant the cell-edge tier instead.
    const BandwidthTier& edge = WaveLanTiers().back();
    std::vector<TraceSegment> segments = trace.segments();
    segments.back().bandwidth_bps = edge.bandwidth_bps;
    segments.back().latency = edge.latency;
    trace = ReplayTrace(std::move(segments));
  }
  return trace;
}

}  // namespace

const char* MobilityModelKindName(MobilityModelKind kind) {
  switch (kind) {
    case MobilityModelKind::kRandomWaypoint:
      return "random_waypoint";
    case MobilityModelKind::kManhattanGrid:
      return "manhattan_grid";
    case MobilityModelKind::kGaussMarkov:
      return "gauss_markov";
    case MobilityModelKind::kWaypointTrace:
      return "waypoint_trace";
  }
  return "unknown";
}

std::unique_ptr<MobilityModel> MakeMobilityModel(const MobilityScenarioSpec& spec,
                                                 uint64_t seed) {
  const double scale = spec.speed_scale > 0.0 ? spec.speed_scale : 1.0;
  switch (spec.model) {
    case MobilityModelKind::kRandomWaypoint: {
      RandomWaypointParams params;
      params.arena = spec.arena;
      params.min_speed_mps = 0.7 * scale;
      params.max_speed_mps = 2.0 * scale;
      params.duration = spec.duration;
      return std::make_unique<RandomWaypoint>(params, seed);
    }
    case MobilityModelKind::kManhattanGrid: {
      ManhattanGridParams params;
      params.arena = spec.arena;
      params.speed_mps = 12.0 * scale;
      params.duration = spec.duration;
      return std::make_unique<ManhattanGrid>(params, seed);
    }
    case MobilityModelKind::kGaussMarkov: {
      GaussMarkovParams params;
      params.arena = spec.arena;
      params.mean_speed_mps = 1.5 * scale;
      params.max_speed_mps = 3.0 * scale;
      params.speed_sigma = 0.5 * scale;
      params.alpha = spec.memory;
      params.duration = spec.duration;
      return std::make_unique<GaussMarkov>(params, seed);
    }
    case MobilityModelKind::kWaypointTrace: {
      WaypointTraceParams params;
      params.time_scale = 1.0 / scale;
      return std::make_unique<WaypointTrace>(params);
    }
  }
  return nullptr;
}

ReplayTrace MakeMobilityWaveform(const MobilityScenarioSpec& spec, uint64_t seed) {
  SplitMix64 mix(seed ^ kWaveformTag);
  const uint64_t model_seed = mix.Next();
  const uint64_t radio_seed = mix.Next();
  const std::unique_ptr<MobilityModel> model = MakeMobilityModel(spec, model_seed);
  // Stations cover the model's arena (kWaypointTrace fixes its own geometry).
  const RadioEnvironment environment(spec.layout, model->arena(), spec.radio, radio_seed);
  return SampleWaveform(*model, environment, spec);
}

}  // namespace odyssey
