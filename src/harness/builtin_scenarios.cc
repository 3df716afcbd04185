#include "src/harness/builtin_scenarios.h"

#include <string>
#include <utility>
#include <vector>

#include "src/core/contract.h"
#include "src/harness/mobility_scenarios.h"
#include "src/metrics/scenarios.h"
#include "src/rpc/endpoint.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {
namespace {

// Lowercase slug for variant names ("step_up"), unlike the display names
// WaveformName produces ("Step-Up").
const char* WaveformSlug(Waveform waveform) {
  switch (waveform) {
    case Waveform::kStepUp:
      return "step_up";
    case Waveform::kStepDown:
      return "step_down";
    case Waveform::kImpulseUp:
      return "impulse_up";
    case Waveform::kImpulseDown:
      return "impulse_down";
  }
  return "unknown";
}

// Nominal acceptance band around a theoretical level (the Figure 8 rule).
void Band(double nominal, double* lo, double* hi) {
  *lo = 0.85 * nominal;
  *hi = 1.15 * nominal;
}

void Add(ScenarioRegistry* registry, Scenario scenario) {
  const Status status = registry->Register(std::move(scenario));
  ODY_ASSERT(status.ok(), "builtin scenario registration failed");
}

// --- Figure 8: supply agility ---

TrialMetrics SupplyAgilityMetrics(Waveform waveform, uint64_t seed, TraceRecorder* trace) {
  const AgilityTrialResult result = RunSupplyAgilityTrial(waveform, seed, trace);
  const ReplayTrace replay = MakeWaveform(waveform);
  double lo = 0.0;
  double hi = 0.0;
  Band(replay.BandwidthAt(31 * kSecond), &lo, &hi);
  const double settle = SettlingTime(result.series, 30.0, lo, hi);
  TrialMetrics metrics{
      {"settle_s", settle, MetricDirection::kLowerIsBetter},
      {"upcall_latency_mean_ms", result.upcall_latency_mean_ms,
       MetricDirection::kLowerIsBetter},
      {"upcall_latency_max_ms", result.upcall_latency_max_ms, MetricDirection::kLowerIsBetter},
      {"upcalls", static_cast<double>(result.upcalls), MetricDirection::kEither},
  };
  if (waveform == Waveform::kImpulseUp || waveform == Waveform::kImpulseDown) {
    Band(replay.BandwidthAt(59 * kSecond), &lo, &hi);
    metrics.push_back(
        {"tail_settle_s", SettlingTime(result.series, 32.0, lo, hi),
         MetricDirection::kLowerIsBetter});
  }
  return metrics;
}

void RegisterSupplyAgility(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fig08_supply_agility";
  scenario.description = "Figure 8: supply estimate settling and upcall latency per waveform";
  for (const Waveform waveform : AllWaveforms()) {
    scenario.variants.push_back(
        {WaveformSlug(waveform), [waveform](uint64_t seed, TraceRecorder* trace) {
           return SupplyAgilityMetrics(waveform, seed, trace);
         }});
  }
  Add(registry, std::move(scenario));
}

// --- Figure 9: demand agility ---

TrialMetrics DemandAgilityMetrics(double utilization, uint64_t seed, TraceRecorder* trace) {
  const DemandTrialResult result = RunDemandAgilityTrial(utilization, seed, trace);
  double lo = 0.0;
  double hi = 0.0;
  Band(kHighBandwidth, &lo, &hi);
  const double total_settle = SettlingTime(result.total, 30.0, lo, hi);
  // Time for the second stream to reach 90% of its final share (Figure 9's
  // startup-transient measure).
  const double final_share =
      result.second_share.empty() ? 0.0 : result.second_share.back().value;
  double share_rise = -1.0;
  for (const SeriesPoint& point : result.second_share) {
    if (point.t_seconds >= 30.0 && point.value >= 0.9 * final_share) {
      share_rise = point.t_seconds - 30.0;
      break;
    }
  }
  return {
      {"total_settle_s", total_settle, MetricDirection::kLowerIsBetter},
      {"share_rise_s", share_rise, MetricDirection::kLowerIsBetter},
  };
}

void RegisterDemandAgility(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fig09_demand_agility";
  scenario.description =
      "Figure 9: second-stream startup transient at 10/45/100% utilization";
  const std::pair<const char*, double> cells[] = {
      {"util_10", 0.10}, {"util_45", 0.45}, {"util_100", 1.0}};
  for (const auto& [name, utilization] : cells) {
    scenario.variants.push_back({name, [utilization](uint64_t seed, TraceRecorder* trace) {
                                   return DemandAgilityMetrics(utilization, seed, trace);
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Figure 10: video player ---

void RegisterVideo(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fig10_video";
  scenario.description = "Figure 10: video drops and fidelity per waveform and track policy";
  const std::pair<const char*, int> tracks[] = {
      {"bw", 2}, {"jpeg50", 1}, {"jpeg99", 0}, {"adaptive", -1}};
  for (const Waveform waveform : AllWaveforms()) {
    for (const auto& [track_name, track] : tracks) {
      const std::string name = std::string(track_name) + "_" + WaveformSlug(waveform);
      scenario.variants.push_back(
          {name, [waveform, track = track](uint64_t seed, TraceRecorder* trace) {
             const VideoTrialResult result = RunVideoTrial(waveform, track, seed, trace);
             return TrialMetrics{
                 {"drops", result.drops, MetricDirection::kLowerIsBetter},
                 {"fidelity", result.fidelity, MetricDirection::kHigherIsBetter},
             };
           }});
    }
  }
  Add(registry, std::move(scenario));
}

// --- Figure 11: Web browser ---

TrialMetrics WebMetrics(const WebTrialResult& result) {
  return {
      {"seconds", result.seconds, MetricDirection::kLowerIsBetter},
      {"fidelity", result.fidelity, MetricDirection::kHigherIsBetter},
  };
}

void RegisterWeb(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fig11_web";
  scenario.description =
      "Figure 11: image fetch seconds and fidelity per waveform and fidelity policy";
  scenario.variants.push_back({"ethernet", [](uint64_t seed, TraceRecorder* trace) {
                                 return WebMetrics(RunWebTrial(
                                     MakeEthernetBaseline(kWaveformLength), 0,
                                     /*prime=*/false, seed, trace));
                               }});
  const std::pair<const char*, int> levels[] = {
      {"jpeg5", 3}, {"jpeg25", 2}, {"jpeg50", 1}, {"full", 0}, {"adaptive", -1}};
  for (const Waveform waveform : AllWaveforms()) {
    for (const auto& [level_name, level] : levels) {
      const std::string name = std::string(level_name) + "_" + WaveformSlug(waveform);
      scenario.variants.push_back(
          {name, [waveform, level = level](uint64_t seed, TraceRecorder* trace) {
             return WebMetrics(
                 RunWebTrial(MakeWaveform(waveform), level, /*prime=*/true, seed, trace));
           }});
    }
  }
  Add(registry, std::move(scenario));
}

// --- Figure 12: speech recognizer ---

void RegisterSpeech(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fig12_speech";
  scenario.description =
      "Figure 12: recognition seconds per waveform under hybrid/remote/adaptive plans";
  const std::pair<const char*, SpeechMode> modes[] = {
      {"always_hybrid", SpeechMode::kAlwaysHybrid},
      {"always_remote", SpeechMode::kAlwaysRemote},
      {"adaptive", SpeechMode::kAdaptive}};
  for (const Waveform waveform : AllWaveforms()) {
    for (const auto& [mode_name, mode] : modes) {
      const std::string name = std::string(mode_name) + "_" + WaveformSlug(waveform);
      scenario.variants.push_back(
          {name, [waveform, mode = mode](uint64_t seed, TraceRecorder* trace) {
             return TrialMetrics{{"seconds", RunSpeechTrialSeconds(waveform, mode, seed, trace),
                                  MetricDirection::kLowerIsBetter}};
           }});
    }
  }
  Add(registry, std::move(scenario));
}

// --- Figures 13+14: concurrent applications ---

void RegisterConcurrent(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fig14_concurrent";
  scenario.description =
      "Figure 14: video+web+speech over the urban trace per resource strategy";
  // Variant name, StrategyRegistry name.
  const std::pair<const char*, const char*> strategies[] = {
      {"odyssey", "odyssey"},
      {"laissez_faire", "laissez-faire"},
      {"blind_optimism", "blind-optimism"}};
  for (const auto& [name, strategy] : strategies) {
    scenario.variants.push_back(
        {name, [strategy = strategy](uint64_t seed, TraceRecorder* trace) {
           const ConcurrentTrialResult result = RunConcurrentTrial(strategy, seed, trace);
           return TrialMetrics{
               {"video_drops", result.video_drops, MetricDirection::kLowerIsBetter},
               {"video_fidelity", result.video_fidelity, MetricDirection::kHigherIsBetter},
               {"web_seconds", result.web_seconds, MetricDirection::kLowerIsBetter},
               {"web_fidelity", result.web_fidelity, MetricDirection::kHigherIsBetter},
               {"speech_seconds", result.speech_seconds, MetricDirection::kLowerIsBetter},
           };
         }});
  }
  Add(registry, std::move(scenario));
}

// --- Ablation: estimator design choices ---

TrialMetrics EstimatorMetrics(const SupplyModelConfig& config, double window_bytes,
                              Waveform waveform, uint64_t seed, TraceRecorder* trace) {
  const EstimatorAblationTrialResult result =
      RunEstimatorAblationTrial(config, window_bytes, waveform, seed, trace);
  return {
      {"settle_s", result.settle_s, MetricDirection::kLowerIsBetter},
      {"steady_error_pct", result.steady_error_pct, MetricDirection::kLowerIsBetter},
  };
}

void RegisterEstimatorAblation(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ablation_estimator";
  scenario.description =
      "Ablation: supply window, transfer window, and rise cap vs Step settling";
  const Waveform steps[] = {Waveform::kStepUp, Waveform::kStepDown};
  for (const double window_s : {0.5, 1.0, 2.0, 4.0}) {
    for (const Waveform waveform : steps) {
      SupplyModelConfig config;
      config.supply_window = SecondsToDuration(window_s);
      const int window_ms = static_cast<int>(window_s * 1000.0);
      const std::string name =
          "supply_window_" + std::to_string(window_ms) + "ms_" + WaveformSlug(waveform);
      scenario.variants.push_back(
          {name, [config, waveform](uint64_t seed, TraceRecorder* trace) {
             return EstimatorMetrics(config, kDefaultWindowBytes, waveform, seed, trace);
           }});
    }
  }
  for (const double window_kb : {16.0, 32.0, 64.0, 128.0}) {
    for (const Waveform waveform : steps) {
      const std::string name = "transfer_window_" +
                               std::to_string(static_cast<int>(window_kb)) + "kb_" +
                               WaveformSlug(waveform);
      scenario.variants.push_back(
          {name, [window_kb, waveform](uint64_t seed, TraceRecorder* trace) {
             return EstimatorMetrics(SupplyModelConfig{}, window_kb * 1024.0, waveform, seed,
                                     trace);
           }});
    }
  }
  for (const double cap : {0.0, 0.25, 0.5, 2.0}) {
    for (const Waveform waveform : steps) {
      SupplyModelConfig config;
      config.estimator.rtt_rise_cap = cap;
      const std::string name =
          (cap <= 0.0 ? std::string("rise_cap_off")
                      : "rise_cap_" + std::to_string(static_cast<int>(cap * 100.0)) + "pct") +
          "_" + WaveformSlug(waveform);
      scenario.variants.push_back(
          {name, [config, waveform](uint64_t seed, TraceRecorder* trace) {
             return EstimatorMetrics(config, kDefaultWindowBytes, waveform, seed, trace);
           }});
    }
  }
  Add(registry, std::move(scenario));
}

// --- Ablation: availability-formula design choices ---

TrialMetrics FairshareMetrics(const SupplyModelConfig& config, uint64_t seed,
                              TraceRecorder* trace) {
  const FairshareTrialResult result = RunFairshareAblationTrial(config, seed, trace);
  return {
      {"video_drops", result.video_drops, MetricDirection::kLowerIsBetter},
      {"video_fidelity", result.video_fidelity, MetricDirection::kHigherIsBetter},
      {"web_seconds", result.web_seconds, MetricDirection::kLowerIsBetter},
      {"web_goal_pct", result.web_goal_pct, MetricDirection::kHigherIsBetter},
  };
}

void RegisterFairshareAblation(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ablation_fairshare";
  scenario.description =
      "Ablation: usage tau and activity window vs concurrent-app outcomes";
  for (const double tau_s : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    SupplyModelConfig config;
    config.usage_tau = SecondsToDuration(tau_s);
    const std::string name =
        "usage_tau_" + std::to_string(static_cast<int>(tau_s * 1000.0)) + "ms";
    scenario.variants.push_back({name, [config](uint64_t seed, TraceRecorder* trace) {
                                   return FairshareMetrics(config, seed, trace);
                                 }});
  }
  for (const double window_s : {1.0, 2.0, 5.0, 15.0}) {
    SupplyModelConfig config;
    config.activity_window = SecondsToDuration(window_s);
    const std::string name =
        "activity_window_" + std::to_string(static_cast<int>(window_s)) + "s";
    scenario.variants.push_back({name, [config](uint64_t seed, TraceRecorder* trace) {
                                   return FairshareMetrics(config, seed, trace);
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Extension: consistency as fidelity ---

void RegisterFileConsistency(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ext_file_consistency";
  scenario.description =
      "Extension: read latency, staleness, and fidelity per consistency level";
  const std::pair<const char*, FileConsistency> levels[] = {
      {"strict", FileConsistency::kStrict},
      {"periodic", FileConsistency::kPeriodic},
      {"optimistic", FileConsistency::kOptimistic},
      {"adaptive", FileConsistency::kAdaptive}};
  for (const auto& [name, level] : levels) {
    scenario.variants.push_back({name, [level = level](uint64_t seed, TraceRecorder* trace) {
                                   const FileConsistencyTrialResult result =
                                       RunFileConsistencyTrial(level, seed, trace);
                                   return TrialMetrics{
                                       {"mean_read_ms", result.mean_read_ms,
                                        MetricDirection::kLowerIsBetter},
                                       {"stale_pct", result.stale_pct,
                                        MetricDirection::kLowerIsBetter},
                                       {"fidelity", result.fidelity,
                                        MetricDirection::kHigherIsBetter},
                                   };
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Extension: full-page Web adaptation ---

void RegisterPageFetch(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ext_page_fetch";
  scenario.description =
      "Extension: page bytes and fetch seconds at 120 and 40 KB/s per Web fidelity level";
  const std::pair<const char*, int> levels[] = {
      {"full", 0}, {"jpeg50", 1}, {"jpeg25", 2}, {"jpeg5", 3}};
  for (const auto& [name, level] : levels) {
    scenario.variants.push_back({name, [level = level](uint64_t seed, TraceRecorder* trace) {
                                   const PageFetchTrialResult result =
                                       RunPageFetchTrial(level, seed, trace);
                                   return TrialMetrics{
                                       {"page_kb", result.page_kb, MetricDirection::kEither},
                                       {"fetch_s_120kbps", result.high_s,
                                        MetricDirection::kLowerIsBetter},
                                       {"fetch_s_40kbps", result.low_s,
                                        MetricDirection::kLowerIsBetter},
                                   };
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Extension: recognition-fidelity levels ---

void RegisterVocabulary(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ext_vocabulary";
  scenario.description =
      "Extension: vocabulary (0 full, 1 medium, 2 tiny), fidelity and seconds per latency goal";
  const std::pair<const char*, double> goals[] = {{"goal_none", 0.0},
                                                  {"goal_1000ms", 1.0},
                                                  {"goal_750ms", 0.75},
                                                  {"goal_500ms", 0.5},
                                                  {"goal_300ms", 0.3}};
  for (const auto& [name, goal] : goals) {
    scenario.variants.push_back({name, [goal = goal](uint64_t seed, TraceRecorder* trace) {
                                   const VocabularyTrialResult result =
                                       RunVocabularyTrial(goal, seed, trace);
                                   return TrialMetrics{
                                       {"vocabulary", static_cast<double>(result.vocabulary),
                                        MetricDirection::kEither},
                                       {"fidelity", result.fidelity,
                                        MetricDirection::kHigherIsBetter},
                                       {"seconds", result.seconds,
                                        MetricDirection::kLowerIsBetter},
                                   };
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Extension: battery and money on the urban walk ---

void RegisterUrbanResources(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ext_urban_resources";
  scenario.description =
      "Extension: battery and money left after the urban walk, and whether each window fired";
  scenario.variants.push_back({"urban_walk", [](uint64_t seed, TraceRecorder* trace) {
                                 const UrbanResourcesTrialResult result =
                                     RunUrbanResourcesTrial(seed, trace);
                                 return TrialMetrics{
                                     {"mb_moved", result.mb_moved, MetricDirection::kEither},
                                     {"battery_left_min", result.battery_left_min,
                                      MetricDirection::kHigherIsBetter},
                                     {"money_left_cents", result.money_left_cents,
                                      MetricDirection::kHigherIsBetter},
                                     {"battery_upcall", result.battery_upcall ? 1.0 : 0.0,
                                      MetricDirection::kEither},
                                     {"money_upcall", result.money_upcall ? 1.0 : 0.0,
                                      MetricDirection::kEither},
                                 };
                               }});
  Add(registry, std::move(scenario));
}

// --- Extension: telemetry delivery levels ---

void RegisterTelemetry(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ext_telemetry";
  scenario.description =
      "Extension: samples/min, staleness and alert lag (-1: none fired) per delivery level";
  for (int level = 0; level < 3; ++level) {
    scenario.variants.push_back(
        {kTelemetryLevels[level].name, [level](uint64_t seed, TraceRecorder* trace) {
           const TelemetryTrialResult result = RunTelemetryTrial(level, seed, trace);
           return TrialMetrics{
               {"samples_per_min", result.samples_per_min, MetricDirection::kHigherIsBetter},
               {"staleness_ms", result.staleness_ms, MetricDirection::kLowerIsBetter},
               {"alert_lag_s", result.alert_lag_s, MetricDirection::kLowerIsBetter},
           };
         }});
  }
  Add(registry, std::move(scenario));
}

}  // namespace

void RegisterBuiltinScenarios(ScenarioRegistry* registry) {
  RegisterSupplyAgility(registry);
  RegisterDemandAgility(registry);
  RegisterVideo(registry);
  RegisterWeb(registry);
  RegisterSpeech(registry);
  RegisterConcurrent(registry);
  RegisterEstimatorAblation(registry);
  RegisterFairshareAblation(registry);
  RegisterFileConsistency(registry);
  RegisterMobilityScenarios(registry);
  RegisterPageFetch(registry);
  RegisterVocabulary(registry);
  RegisterUrbanResources(registry);
  RegisterTelemetry(registry);
}

}  // namespace odyssey
