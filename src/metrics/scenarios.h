// Reusable experiment scenarios: the per-trial bodies of every figure and
// ablation in the evaluation.
//
// Each function runs ONE trial — one cell of a figure's grid at one seed —
// and returns plain numbers.  Two consumers run the exact same event
// sequence: the campaign harness in src/harness (which registers each body
// as a scenario variant, fans trials across a worker pool and aggregates
// them into BENCH_*.json artifacts that `ody_bench table` prints), and the
// golden-trace / agility regression tests.  Every trial is shared-nothing:
// it builds its own Simulation from |seed|, touches no global state, and is
// safe to run concurrently with any other trial.
//
// The Figure-8 trial additionally adds an adaptive consumer on top of the
// raw bitstream workload: it holds a window of tolerance around the
// reported bandwidth and re-centers on every upcall, so a traced run
// exercises the viceroy and application layers as well as estimation.

#ifndef SRC_METRICS_SCENARIOS_H_
#define SRC_METRICS_SCENARIOS_H_

#include <cstdint>
#include <string>

#include "src/estimator/supply_model.h"
#include "src/metrics/experiment.h"
#include "src/metrics/stats.h"
#include "src/tracemod/waveforms.h"
#include "src/wardens/file_warden.h"
#include "src/wardens/speech_warden.h"

namespace odyssey {

class TraceRecorder;

// Result of one supply-agility trial (one waveform, one seed).
struct AgilityTrialResult {
  Series series;  // supply estimate over the measured minute, 100ms grid

  // Upcall-latency accounting (satellite of the odytrace work): sim time
  // from a supply-change upcall being posted to its handler running.
  uint64_t upcalls = 0;
  double upcall_latency_mean_ms = 0.0;
  double upcall_latency_max_ms = 0.0;
};

// Runs one trial: a bitstream consumer at maximum rate with an adaptive
// bandwidth window, against |waveform| with the paper's 30-second priming.
// When |trace| is non-null every instrumented component records into it.
AgilityTrialResult RunSupplyAgilityTrial(Waveform waveform, uint64_t seed,
                                         TraceRecorder* trace = nullptr);

// --- Figure 9: demand agility ---

// One demand-agility trial: a first bitstream runs from the start, an
// identical second one joins at t=30s, both at |utilization| of nominal
// (>= 1.0 means unthrottled).  Returns the total supply estimate and the
// second stream's availability estimate on the 100ms grid.
struct DemandTrialResult {
  Series total;
  Series second_share;
};

DemandTrialResult RunDemandAgilityTrial(double utilization, uint64_t seed,
                                        TraceRecorder* trace = nullptr);

// --- Figure 10: video player ---

// One video trial: the player runs over |waveform| on the given fixed track
// (-1 = Odyssey's adaptive selection), measured across the waveform minute.
struct VideoTrialResult {
  double drops = 0.0;
  double fidelity = 0.0;
};

VideoTrialResult RunVideoTrial(Waveform waveform, int fixed_track, uint64_t seed,
                               TraceRecorder* trace = nullptr);

// --- Figure 11: Web browser ---

// One Web trial: repeated image fetches over |replay| at the given fixed
// fidelity level (-1 = adaptive), with or without the priming prefix.
struct WebTrialResult {
  double seconds = 0.0;
  double fidelity = 0.0;
};

WebTrialResult RunWebTrial(const ReplayTrace& replay, int fixed_level, bool prime,
                           uint64_t seed, TraceRecorder* trace = nullptr);

// --- Figure 12: speech recognizer ---

// One speech trial: repeated short-phrase recognition over |waveform| under
// |mode|; returns the mean recognition seconds of the measured minute.
double RunSpeechTrialSeconds(Waveform waveform, SpeechMode mode, uint64_t seed,
                             TraceRecorder* trace = nullptr);

// --- Figures 13+14: concurrent applications ---

// One concurrent-applications trial: video + web + speech over the
// 15-minute urban trace under |strategy|.
struct ConcurrentTrialResult {
  double video_drops = 0.0;
  double video_fidelity = 0.0;
  double web_seconds = 0.0;
  double web_fidelity = 0.0;
  double speech_seconds = 0.0;
};

ConcurrentTrialResult RunConcurrentTrial(const std::string& strategy, uint64_t seed,
                                         TraceRecorder* trace = nullptr);

// --- Ablation: estimator design choices ---

// One estimator-ablation trial: a bitstream over |waveform| with the swept
// estimator |config| and bulk-transfer |window_bytes|; returns the settling
// time after the t=30s transition and the pre-transition steady-state
// estimate error.
struct EstimatorAblationTrialResult {
  double settle_s = 0.0;
  double steady_error_pct = 0.0;
};

EstimatorAblationTrialResult RunEstimatorAblationTrial(const SupplyModelConfig& config,
                                                       double window_bytes, Waveform waveform,
                                                       uint64_t seed,
                                                       TraceRecorder* trace = nullptr);

// --- Ablation: availability-formula design choices ---

// One fair-share ablation trial: video + web + speech on the shortened
// urban walk under Odyssey with the swept |config|.
struct FairshareTrialResult {
  double video_drops = 0.0;
  double video_fidelity = 0.0;
  double web_seconds = 0.0;
  double web_goal_pct = 0.0;  // fetches meeting the 0.4 s goal
};

FairshareTrialResult RunFairshareAblationTrial(const SupplyModelConfig& config, uint64_t seed,
                                               TraceRecorder* trace = nullptr);

// --- Extension: consistency as fidelity (file warden) ---

// One file-consistency trial: a reader sweeps eight documents over
// Step-Down while a server-side writer updates them underneath the cache.
struct FileConsistencyTrialResult {
  double mean_read_ms = 0.0;
  double stale_pct = 0.0;
  double fidelity = 0.0;
};

FileConsistencyTrialResult RunFileConsistencyTrial(FileConsistency level, uint64_t seed,
                                                   TraceRecorder* trace = nullptr);

// --- Extension: full-page Web adaptation ---

// One page-fetch trial: a 6 KB page with three inline images fetched once
// at Web fidelity |level| (0 = full quality .. 3 = JPEG(5)), on a fresh rig
// at each reference bandwidth.  Only the 120 KB/s fetch is traced.
struct PageFetchTrialResult {
  double page_kb = 0.0;  // markup + images delivered (the 120 KB/s fetch)
  double high_s = 0.0;   // fetch seconds at 120 KB/s
  double low_s = 0.0;    // fetch seconds at 40 KB/s
};

PageFetchTrialResult RunPageFetchTrial(int level, uint64_t seed, TraceRecorder* trace = nullptr);

// --- Extension: recognition-fidelity (vocabulary) levels ---

// One vocabulary trial at 40 KB/s: a warm-up recognition, then one with
// latency goal |goal_s| (<= 0: no goal).  Reports the vocabulary the warden
// picked (an index into kSpeechVocabularies), its fidelity and the
// recognition seconds.
struct VocabularyTrialResult {
  int vocabulary = 0;
  double fidelity = 0.0;
  double seconds = 0.0;
};

VocabularyTrialResult RunVocabularyTrial(double goal_s, uint64_t seed,
                                         TraceRecorder* trace = nullptr);

// --- Extension: battery and money across the urban walk ---

// One urban-resources trial: video + web + speech over the Figure 13 walk
// with a 60-minute battery and a 50-cent budget, and a monitor holding
// windows on both (battery lower bound 45 min, money 30 cents).
struct UrbanResourcesTrialResult {
  double mb_moved = 0.0;
  double battery_left_min = 0.0;
  double money_left_cents = 0.0;
  bool battery_upcall = false;
  bool money_upcall = false;
};

UrbanResourcesTrialResult RunUrbanResourcesTrial(uint64_t seed, TraceRecorder* trace = nullptr);

// --- Extension: telemetry delivery levels ---

// One telemetry trial: a background filter watches a 10 Hz feed for two
// minutes at delivery |level| (an index into kTelemetryLevels), with one
// alert-worthy event injected at t = 1 min.
struct TelemetryTrialResult {
  double samples_per_min = 0.0;
  double staleness_ms = 0.0;
  double alert_lag_s = -1.0;  // -1 when no alert fired
};

TelemetryTrialResult RunTelemetryTrial(int level, uint64_t seed, TraceRecorder* trace = nullptr);

// --- Mobility: motion-generated waveform tracking ---

// One mobility-tracking trial: an adaptive bitstream consumer runs over a
// motion-generated waveform (src/mobility) end to end.  Tracking quality
// is measured against the nominal waveform on the 100ms grid, over the
// *live* samples only (nonzero nominal bandwidth): mean absolute estimate
// error as a percentage of nominal, and the fraction of live samples
// inside the Figure-8 ±15% acceptance band.  Time at zero nominal
// bandwidth is reported separately as radio-shadow seconds.
struct MobilityTrialResult {
  double tracking_error_pct = 0.0;
  double in_band_pct = 0.0;
  double shadow_seconds = 0.0;

  uint64_t upcalls = 0;
  double upcall_latency_mean_ms = 0.0;
  double upcall_latency_max_ms = 0.0;
};

// Runs one trial over |replay| with the paper's 30-second priming.  The
// caller builds the waveform (the metrics layer stays mobility-free); the
// harness passes MakeMobilityWaveform(spec, seed) so each trial of a cell
// drives a different — but seed-reproducible — track through it.
MobilityTrialResult RunMobilityTrackingTrial(const ReplayTrace& replay, uint64_t seed,
                                             TraceRecorder* trace = nullptr);

}  // namespace odyssey

#endif  // SRC_METRICS_SCENARIOS_H_
