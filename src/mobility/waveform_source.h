// The mobility waveform pipeline: samples a (model, radio environment) pair
// into the piecewise-constant ReplayTrace representation the rest of the
// system already consumes — the Modulator, the estimator, and all six
// wardens run unmodified over a motion-generated waveform.
//
// MobilityScenarioSpec + MakeMobilityWaveform is the one-call entry point
// the campaign variants, the fuzzer's mobility dimension, and the examples
// share: a spec plus a seed deterministically yields a waveform.

#ifndef SRC_MOBILITY_WAVEFORM_SOURCE_H_
#define SRC_MOBILITY_WAVEFORM_SOURCE_H_

#include <cstdint>
#include <memory>

#include "src/mobility/mobility_model.h"
#include "src/mobility/radio_environment.h"
#include "src/sim/time.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {

// --- Named specs: the shared entry point ---

enum class MobilityModelKind : int {
  kRandomWaypoint = 0,
  kManhattanGrid = 1,
  kGaussMarkov = 2,
  kWaypointTrace = 3,
};

inline constexpr int kMobilityModelKinds = 4;

const char* MobilityModelKindName(MobilityModelKind kind);

// A complete mobility scenario: which model moves through which coverage
// layout, and how the pipeline is sampled.  speed_scale multiplies the
// model's default speeds (pedestrian defaults; ~3x is a jog, ~8x a drive);
// for kWaypointTrace it compresses the embedded drive's schedule instead.
// kWaypointTrace ignores |arena| (the embedded trace fixes its own).
struct MobilityScenarioSpec {
  MobilityModelKind model = MobilityModelKind::kRandomWaypoint;
  BaseStationLayout layout = BaseStationLayout::kSingleCell;
  Arena arena;
  double speed_scale = 1.0;
  double memory = 0.75;  // Gauss-Markov alpha (ignored by the other models)
  Duration duration = 120 * kSecond;
  Duration sample_period = 500 * kMillisecond;
  RadioParams radio;
};

// Builds the spec's model from a SplitMix64-derived stream of |seed|.
std::unique_ptr<MobilityModel> MakeMobilityModel(const MobilityScenarioSpec& spec,
                                                 uint64_t seed);

// The full pipeline: model -> radio environment (stations covering the
// model's arena) -> sampled waveform.  A pure function of (spec, seed).
// Position -> tier is probed every sample_period and runs of equal
// parameters merge into segments whose durations sum to exactly
// spec.duration.  The final segment always has positive bandwidth.
ReplayTrace MakeMobilityWaveform(const MobilityScenarioSpec& spec, uint64_t seed);

}  // namespace odyssey

#endif  // SRC_MOBILITY_WAVEFORM_SOURCE_H_
