#include "src/harness/builtin_scenarios.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/bitstream_app.h"
#include "src/apps/filter_app.h"
#include "src/apps/speech_frontend.h"
#include "src/apps/tracking_window.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/core/battery_model.h"
#include "src/core/cache_manager.h"
#include "src/core/contract.h"
#include "src/core/money_meter.h"
#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/metrics/stats.h"
#include "src/metrics/trial.h"
#include "src/mobility/radio_environment.h"
#include "src/mobility/waveform_source.h"
#include "src/rpc/endpoint.h"
#include "src/servers/calibration.h"
#include "src/servers/file_server.h"
#include "src/servers/telemetry_server.h"
#include "src/strategies/centralized.h"
#include "src/trace/trace_recorder.h"
#include "src/tracemod/waveforms.h"
#include "src/wardens/file_warden.h"
#include "src/wardens/speech_warden.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {
namespace {

constexpr Duration kAgilitySamplePeriod = 100 * kMillisecond;

// The Figure 8 acceptance rule: within ±15% of a nominal level.
struct AcceptanceBand {
  explicit AcceptanceBand(double nominal) : lo(0.85 * nominal), hi(1.15 * nominal) {}
  bool Contains(double value) const { return value >= lo && value <= hi; }

  double lo;
  double hi;
};

// The rig's total supply estimate on the 100 ms grid, timestamped from
// |epoch| (the estimate traces of Figures 8 and 9).
Sampler SupplySampler(ExperimentRig* rig, Time epoch) {
  return Sampler(&rig->sim(), kAgilitySamplePeriod, epoch,
                 [rig] { return rig->centralized()->TotalSupply(rig->sim().now()); });
}

void Add(ScenarioRegistry* registry, Scenario scenario) {
  const Status status = registry->Register(std::move(scenario));
  ODY_ASSERT(status.ok(), "builtin scenario registration failed");
}

// Waits (in one-second steps) for the estimator's first figures, then
// starts |app|'s tracking window at the reported level.
void StartAdaptingWhenEstimated(OdysseyClient* client, WindowTracker* windows, TrackedApp* app) {
  client->sim()->Schedule(kSecond, [client, windows, app] {
    if (!client->HasBandwidthEstimate()) {
      StartAdaptingWhenEstimated(client, windows, app);
      return;
    }
    windows->Register(app, client->CurrentLevel(app->id, ResourceId::kNetworkBandwidth));
  });
}

// --- Figure 8: supply agility ---

// A bitstream consumer at maximum rate with an adaptive bandwidth window
// (so a traced run exercises the viceroy and application layers as well as
// estimation), against |waveform| with the paper's 30-second priming.
TrialMetrics RunSupplyAgilityTrial(Waveform waveform, uint64_t seed, TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  BitstreamApp app(&rig.client(), "bitstream");
  const ReplayTrace replay = MakeWaveform(waveform);
  const Time measure = rig.Replay(replay);
  app.Start();
  WindowTracker windows(&rig.client().viceroy());
  TrackedApp tracked{.id = app.app()};
  StartAdaptingWhenEstimated(&rig.client(), &windows, &tracked);

  Sampler sampler = SupplySampler(&rig, measure);
  // ody_lint: owned-capture
  rig.sim().ScheduleAt(measure, [&] { sampler.Run(measure + kWaveformLength); });
  rig.sim().RunUntil(measure + kWaveformLength);

  const UpcallDispatcher& upcalls = rig.client().viceroy().upcalls();
  const AcceptanceBand band(replay.BandwidthAt(31 * kSecond));
  TrialMetrics metrics{
      {"settle_s", SettlingTime(sampler.series(), 30.0, band.lo, band.hi),
       MetricDirection::kLowerIsBetter},
      {"upcall_latency_mean_ms", upcalls.latency_mean_us() / 1000.0,
       MetricDirection::kLowerIsBetter},
      {"upcall_latency_max_ms", static_cast<double>(upcalls.latency_max()) / 1000.0,
       MetricDirection::kLowerIsBetter},
      {"upcalls", static_cast<double>(upcalls.delivered_count()), MetricDirection::kEither},
  };
  if (waveform == Waveform::kImpulseUp || waveform == Waveform::kImpulseDown) {
    const AcceptanceBand tail(replay.BandwidthAt(59 * kSecond));
    metrics.push_back({"tail_settle_s", SettlingTime(sampler.series(), 32.0, tail.lo, tail.hi),
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
        {WaveformName(waveform), [waveform](uint64_t seed, TraceRecorder* trace) {
           return RunSupplyAgilityTrial(waveform, seed, trace);
         }});
  }
  Add(registry, std::move(scenario));
}

// --- Figure 9: demand agility ---

// A first bitstream runs from the start, an identical second one joins at
// t=30s, both at |utilization| of nominal (>= 1.0 means unthrottled).
// Reports the total estimate's settling and the second stream's startup
// transient: the time for its availability to reach 90% of its final share.
TrialMetrics RunDemandAgilityTrial(double utilization, uint64_t seed, TraceRecorder* trace) {
  constexpr Duration kObservation = 60 * kSecond;

  ExperimentRig rig({.seed = seed, .trace = trace});
  BitstreamApp first(&rig.client(), "bitstream-1");
  BitstreamApp second(&rig.client(), "bitstream-2");
  const double target = utilization >= 1.0 ? 0.0 : utilization * kHighBandwidth;

  // Steady high bandwidth throughout (the demand experiments run at the
  // higher modulated bandwidth, §6.2.1).
  const Time measure = rig.Replay(MakeConstant(kHighBandwidth, 2 * kObservation));
  first.Start(target);
  // ody_lint: owned-capture
  rig.sim().ScheduleAt(measure + 30 * kSecond, [&] { second.Start(target); });

  Sampler total_sampler = SupplySampler(&rig, measure);
  // ody_lint: owned-capture
  Sampler share_sampler(&rig.sim(), kAgilitySamplePeriod, measure, [&rig, &second] {
    if (second.connection() == 0) {
      return 0.0;
    }
    return rig.centralized()->ConnectionAvailability(second.connection(), rig.sim().now());
  });
  rig.sim().ScheduleAt(measure, [&] {  // ody_lint: owned-capture
    total_sampler.Run(measure + kObservation);
    share_sampler.Run(measure + kObservation);
  });
  rig.sim().RunUntil(measure + kObservation);

  const AcceptanceBand band(kHighBandwidth);
  const Series& share = share_sampler.series();
  const double final_share = share.empty() ? 0.0 : share.back().value;
  double share_rise = -1.0;
  for (const SeriesPoint& point : share) {
    if (point.t_seconds >= 30.0 && point.value >= 0.9 * final_share) {
      share_rise = point.t_seconds - 30.0;
      break;
    }
  }
  return {
      {"total_settle_s", SettlingTime(total_sampler.series(), 30.0, band.lo, band.hi),
       MetricDirection::kLowerIsBetter},
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
                                   return RunDemandAgilityTrial(utilization, seed, trace);
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Figure 10: video player ---

// The player runs over |waveform| on the given fixed track (-1 = Odyssey's
// adaptive selection), measured across the waveform minute.
TrialMetrics RunVideoTrial(Waveform waveform, int fixed_track, uint64_t seed,
                           TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  VideoPlayerOptions options;
  options.fixed_track = fixed_track;
  // Play through priming plus the waveform; measure only the 600 frames
  // displayed during the waveform.
  options.frames_to_play = 1000;
  VideoPlayer player(&rig.client(), options);
  const Time measure = rig.Replay(MakeWaveform(waveform));
  const Time end = measure + kWaveformLength;
  player.Start();
  rig.sim().RunUntil(end);
  return {
      {"drops", static_cast<double>(player.DropsBetween(measure, end)),
       MetricDirection::kLowerIsBetter},
      {"fidelity", player.MeanFidelityBetween(measure, end), MetricDirection::kHigherIsBetter},
  };
}

void RegisterVideo(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fig10_video";
  scenario.description = "Figure 10: video drops and fidelity per waveform and track policy";
  const std::pair<const char*, int> tracks[] = {
      {"bw", 2}, {"jpeg50", 1}, {"jpeg99", 0}, {"adaptive", -1}};
  for (const Waveform waveform : AllWaveforms()) {
    for (const auto& [track_name, track] : tracks) {
      const std::string name = std::string(track_name) + "_" + WaveformName(waveform);
      scenario.variants.push_back(
          {name, [waveform, track = track](uint64_t seed, TraceRecorder* trace) {
             return RunVideoTrial(waveform, track, seed, trace);
           }});
    }
  }
  Add(registry, std::move(scenario));
}

// --- Figure 11: Web browser ---

// Repeated image fetches over |replay| at the given fixed fidelity level
// (-1 = adaptive), with or without the priming prefix.
TrialMetrics RunWebTrial(const ReplayTrace& replay, int fixed_level, bool prime, uint64_t seed,
                         TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  WebBrowserOptions options;
  options.fixed_level = fixed_level;
  WebBrowser browser(&rig.client(), options);
  const Time measure = rig.Replay(replay, prime);
  const Time end = measure + replay.TotalDuration();
  browser.Start();
  rig.sim().RunUntil(end);
  browser.Stop();
  return {
      {"seconds", browser.MeanSecondsBetween(measure, end), MetricDirection::kLowerIsBetter},
      {"fidelity", browser.MeanFidelityBetween(measure, end), MetricDirection::kHigherIsBetter},
  };
}

void RegisterWeb(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fig11_web";
  scenario.description =
      "Figure 11: image fetch seconds and fidelity per waveform and fidelity policy";
  scenario.variants.push_back({"ethernet", [](uint64_t seed, TraceRecorder* trace) {
                                 return RunWebTrial(MakeEthernetBaseline(kWaveformLength), 0,
                                                    /*prime=*/false, seed, trace);
                               }});
  const std::pair<const char*, int> levels[] = {
      {"jpeg5", 3}, {"jpeg25", 2}, {"jpeg50", 1}, {"full", 0}, {"adaptive", -1}};
  for (const Waveform waveform : AllWaveforms()) {
    for (const auto& [level_name, level] : levels) {
      const std::string name = std::string(level_name) + "_" + WaveformName(waveform);
      scenario.variants.push_back(
          {name, [waveform, level = level](uint64_t seed, TraceRecorder* trace) {
             return RunWebTrial(MakeWaveform(waveform), level, /*prime=*/true, seed, trace);
           }});
    }
  }
  Add(registry, std::move(scenario));
}

// --- Figure 12: speech recognizer ---

// Repeated short-phrase recognition over |waveform| under |mode|; reports
// the mean recognition seconds of the measured minute.
TrialMetrics RunSpeechTrialSeconds(Waveform waveform, SpeechMode mode, uint64_t seed,
                                   TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  SpeechFrontEndOptions options;
  options.mode = mode;
  SpeechFrontEnd frontend(&rig.client(), options);
  const Time measure = rig.Replay(MakeWaveform(waveform));
  frontend.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  frontend.Stop();
  return {{"seconds", frontend.MeanSecondsBetween(measure, measure + kWaveformLength),
           MetricDirection::kLowerIsBetter}};
}

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
      const std::string name = std::string(mode_name) + "_" + WaveformName(waveform);
      scenario.variants.push_back(
          {name, [waveform, mode = mode](uint64_t seed, TraceRecorder* trace) {
             return RunSpeechTrialSeconds(waveform, mode, seed, trace);
           }});
    }
  }
  Add(registry, std::move(scenario));
}

// --- Figures 13+14: concurrent applications ---

// Video + web + speech over the 15-minute urban trace under |strategy|.
TrialMetrics RunConcurrentTrial(const std::string& strategy, uint64_t seed,
                                TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .strategy = strategy, .trace = trace});
  VideoPlayerOptions video_options;
  // 15 minutes at 10 fps plus the priming period; the 600-frame movie
  // loops continuously.
  video_options.frames_to_play = 10000;
  VideoPlayer video(&rig.client(), video_options);
  WebBrowser web(&rig.client(), WebBrowserOptions{});
  SpeechFrontEnd speech(&rig.client(), SpeechFrontEndOptions{});

  const ReplayTrace urban = MakeUrbanScenario();
  const Time measure = rig.Replay(urban);
  const Time end = measure + urban.TotalDuration();
  video.Start();
  web.Start();
  speech.Start();
  rig.sim().RunUntil(end);
  return {
      {"video_drops", static_cast<double>(video.DropsBetween(measure, end)),
       MetricDirection::kLowerIsBetter},
      {"video_fidelity", video.MeanFidelityBetween(measure, end),
       MetricDirection::kHigherIsBetter},
      {"web_seconds", web.MeanSecondsBetween(measure, end), MetricDirection::kLowerIsBetter},
      {"web_fidelity", web.MeanFidelityBetween(measure, end), MetricDirection::kHigherIsBetter},
      {"speech_seconds", speech.MeanSecondsBetween(measure, end),
       MetricDirection::kLowerIsBetter},
  };
}

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
           return RunConcurrentTrial(strategy, seed, trace);
         }});
  }
  Add(registry, std::move(scenario));
}

// --- Ablation: estimator design choices ---

// A bitstream over |waveform| with the swept estimator |config| and
// bulk-transfer |window_bytes|; reports the settling time after the t=30s
// transition and the pre-transition steady-state estimate error.
TrialMetrics RunEstimatorAblationTrial(const SupplyModelConfig& config, double window_bytes,
                                       Waveform waveform, uint64_t seed, TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .supply = config, .trace = trace});
  BitstreamApp app(&rig.client(), "bitstream");
  const Time measure = rig.Replay(MakeWaveform(waveform));
  app.Start(0.0, window_bytes);
  Sampler sampler = SupplySampler(&rig, measure);
  // ody_lint: owned-capture
  rig.sim().ScheduleAt(measure, [&] { sampler.Run(measure + kWaveformLength); });
  rig.sim().RunUntil(measure + kWaveformLength);

  const AcceptanceBand band(waveform == Waveform::kStepUp ? kHighBandwidth : kLowBandwidth);
  // Steady-state error over the pre-transition half.
  double error_sum = 0.0;
  int error_count = 0;
  const double pre = waveform == Waveform::kStepUp ? kLowBandwidth : kHighBandwidth;
  for (const auto& point : sampler.series()) {
    if (point.t_seconds > 10.0 && point.t_seconds < 29.0) {
      error_sum += 100.0 * std::abs(point.value - pre) / pre;
      ++error_count;
    }
  }
  return {
      {"settle_s", SettlingTime(sampler.series(), 30.0, band.lo, band.hi),
       MetricDirection::kLowerIsBetter},
      {"steady_error_pct", error_count > 0 ? error_sum / error_count : 0.0,
       MetricDirection::kLowerIsBetter},
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
          "supply_window_" + std::to_string(window_ms) + "ms_" + WaveformName(waveform);
      scenario.variants.push_back(
          {name, [config, waveform](uint64_t seed, TraceRecorder* trace) {
             return RunEstimatorAblationTrial(config, kDefaultWindowBytes, waveform, seed,
                                              trace);
           }});
    }
  }
  for (const double window_kb : {16.0, 32.0, 64.0, 128.0}) {
    for (const Waveform waveform : steps) {
      const std::string name = "transfer_window_" +
                               std::to_string(static_cast<int>(window_kb)) + "kb_" +
                               WaveformName(waveform);
      scenario.variants.push_back(
          {name, [window_kb, waveform](uint64_t seed, TraceRecorder* trace) {
             return RunEstimatorAblationTrial(SupplyModelConfig{}, window_kb * 1024.0, waveform,
                                              seed, trace);
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
          "_" + WaveformName(waveform);
      scenario.variants.push_back(
          {name, [config, waveform](uint64_t seed, TraceRecorder* trace) {
             return RunEstimatorAblationTrial(config, kDefaultWindowBytes, waveform, seed,
                                              trace);
           }});
    }
  }
  Add(registry, std::move(scenario));
}

// --- Ablation: availability-formula design choices ---

// Video + web + speech on the shortened urban walk under Odyssey with the
// swept |config|; web_goal_pct counts fetches meeting the 0.4 s goal.
TrialMetrics RunFairshareAblationTrial(const SupplyModelConfig& config, uint64_t seed,
                                       TraceRecorder* trace) {
  // Shortened urban walk: H, L, H, L, H at 45 s each.
  ReplayTrace replay;
  for (int i = 0; i < 5; ++i) {
    replay.Append(45 * kSecond, i % 2 == 0 ? kHighBandwidth : kLowBandwidth, kOneWayLatency);
  }

  ExperimentRig rig({.seed = seed, .supply = config, .trace = trace});
  VideoPlayerOptions video_options;
  video_options.frames_to_play = 4000;
  VideoPlayer video(&rig.client(), video_options);
  WebBrowser web(&rig.client(), WebBrowserOptions{});
  SpeechFrontEnd speech(&rig.client(), SpeechFrontEndOptions{});

  const Time measure = rig.Replay(replay);
  const Time end = measure + replay.TotalDuration();
  video.Start();
  web.Start();
  speech.Start();
  rig.sim().RunUntil(end);

  int goal_met = 0;
  int fetches = 0;
  for (const auto& outcome : web.outcomes()) {
    if (outcome.started >= measure && outcome.started < end) {
      ++fetches;
      goal_met += outcome.elapsed <= kWebGoal ? 1 : 0;
    }
  }
  return {
      {"video_drops", static_cast<double>(video.DropsBetween(measure, end)),
       MetricDirection::kLowerIsBetter},
      {"video_fidelity", video.MeanFidelityBetween(measure, end),
       MetricDirection::kHigherIsBetter},
      {"web_seconds", web.MeanSecondsBetween(measure, end), MetricDirection::kLowerIsBetter},
      {"web_goal_pct", fetches == 0 ? 0.0 : 100.0 * goal_met / fetches,
       MetricDirection::kHigherIsBetter},
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
                                   return RunFairshareAblationTrial(config, seed, trace);
                                 }});
  }
  for (const double window_s : {1.0, 2.0, 5.0, 15.0}) {
    SupplyModelConfig config;
    config.activity_window = SecondsToDuration(window_s);
    const std::string name =
        "activity_window_" + std::to_string(static_cast<int>(window_s)) + "s";
    scenario.variants.push_back({name, [config](uint64_t seed, TraceRecorder* trace) {
                                   return RunFairshareAblationTrial(config, seed, trace);
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Extension: consistency as fidelity (file warden) ---

// A reader sweeps eight documents over Step-Down while a server-side writer
// updates them underneath the cache.
TrialMetrics RunFileConsistencyTrial(FileConsistency level, uint64_t seed,
                                     TraceRecorder* trace) {
  constexpr double kKb = 1024.0;
  ExperimentRig rig({.seed = seed, .trace = trace});
  FileServer file_server(&rig.sim().rng());
  CacheManager cache(&rig.client().viceroy(), 1024.0);
  for (int i = 0; i < 8; ++i) {
    file_server.Publish("doc/" + std::to_string(i), 12.0 * kKb);
  }
  rig.client().InstallWarden(std::make_unique<FileWarden>(&file_server, &cache));
  const AppId app = rig.client().RegisterApplication("reader");
  rig.client().Tsop(app, std::string(kOdysseyRoot) + "files/", kFileSetConsistency,
                    PackStruct(FileSetConsistencyRequest{static_cast<int>(level)}),
                    [](Status, std::string) {});
  rig.Replay(MakeStepDown(), /*prime=*/true);

  // A server-side writer updates a random file every 2 s.
  std::function<void()> writer = [&] {
    const Status updated =
        file_server.Update("doc/" + std::to_string(rig.sim().rng().UniformInt(8)));
    ODY_ASSERT(updated.ok(), "writer touched an unpublished document");
    rig.sim().Schedule(2 * kSecond, writer);
  };
  rig.sim().Schedule(2 * kSecond, writer);

  // The reader sweeps the documents continuously.
  double read_ms_sum = 0.0;
  int reads = 0;
  double fidelity_sum = 0.0;
  // |index| and |start| are captured by value: the Tsop callback runs after
  // read_loop's frame is gone, so a default reference capture of the
  // parameter would read a dead stack slot (and did, before this was a
  // shared scenario — the reads swept pseudo-random documents that varied
  // with address-space layout instead of cycling 0..7).
  std::function<void(int)> read_loop = [&](int index) {
    const Time start = rig.sim().now();
    rig.client().Tsop(app, std::string(kOdysseyRoot) + "files/doc/" + std::to_string(index % 8),
                      // ody_lint: owned-capture
                      kFileRead, "", [&, start, index](Status status, std::string out) {
                        FileReadReply reply;
                        if (status.ok() && UnpackStruct(out, &reply)) {
                          read_ms_sum += DurationToMillis(rig.sim().now() - start);
                          fidelity_sum += reply.fidelity;
                          ++reads;
                        }
                        rig.sim().Schedule(200 * kMillisecond,
                                           // ody_lint: owned-capture
                                           [&read_loop, index] { read_loop(index + 1); });
                      });
  };
  read_loop(0);
  rig.sim().RunUntil(kPrimingPeriod + kWaveformLength);

  FileWardenStats stats;
  rig.client().Tsop(app, std::string(kOdysseyRoot) + "files/", kFileStats, "",
                    [&](Status status, std::string out) {  // ody_lint: owned-capture
                      ODY_ASSERT(status.ok() && UnpackStruct(out, &stats),
                                 "file stats tsop failed");
                    });
  return {
      {"mean_read_ms", reads == 0 ? 0.0 : read_ms_sum / reads, MetricDirection::kLowerIsBetter},
      {"stale_pct", reads == 0 ? 0.0 : 100.0 * stats.stale_serves / reads,
       MetricDirection::kLowerIsBetter},
      {"fidelity", reads == 0 ? 0.0 : fidelity_sum / reads, MetricDirection::kHigherIsBetter},
  };
}

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
                                   return RunFileConsistencyTrial(level, seed, trace);
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Mobility: motion-generated waveform tracking (DESIGN.md §14) ---

// An adaptive bitstream consumer runs over a motion-generated waveform end
// to end, with the paper's 30-second priming.  Tracking quality is measured
// against the nominal waveform on the 100ms grid, over the *live* samples
// only (nonzero nominal bandwidth): mean absolute estimate error as a
// percentage of nominal, and the fraction of live samples inside the
// Figure 8 band.  Time at zero nominal bandwidth is reported separately as
// radio-shadow seconds.
TrialMetrics RunMobilityTrackingTrial(const ReplayTrace& replay, uint64_t seed,
                                      TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  BitstreamApp app(&rig.client(), "bitstream");
  const Time measure = rig.Replay(replay);
  const Time end = measure + replay.TotalDuration();
  app.Start();
  WindowTracker windows(&rig.client().viceroy());
  TrackedApp tracked{.id = app.app()};
  StartAdaptingWhenEstimated(&rig.client(), &windows, &tracked);

  Sampler sampler = SupplySampler(&rig, measure);
  // ody_lint: owned-capture
  rig.sim().ScheduleAt(measure, [&] { sampler.Run(end); });
  rig.sim().RunUntil(end);

  uint64_t live = 0;
  uint64_t in_band = 0;
  double error_pct_sum = 0.0;
  double shadow_seconds = 0.0;
  for (const SeriesPoint& point : sampler.series()) {
    // Sample timestamps are relative to |measure|, which is also the start
    // of the unprimed replay, so they index the nominal waveform directly.
    const double nominal = replay.BandwidthAt(SecondsToDuration(point.t_seconds));
    if (nominal <= 0.0) {
      shadow_seconds += DurationToSeconds(kAgilitySamplePeriod);
      continue;
    }
    ++live;
    error_pct_sum += 100.0 * std::abs(point.value - nominal) / nominal;
    if (AcceptanceBand(nominal).Contains(point.value)) {
      ++in_band;
    }
  }
  const double live_samples = static_cast<double>(live);
  const UpcallDispatcher& upcalls = rig.client().viceroy().upcalls();
  return {
      {"tracking_error_pct", live > 0 ? error_pct_sum / live_samples : 0.0,
       MetricDirection::kLowerIsBetter},
      {"in_band_pct", live > 0 ? 100.0 * static_cast<double>(in_band) / live_samples : 0.0,
       MetricDirection::kHigherIsBetter},
      {"shadow_seconds", shadow_seconds, MetricDirection::kEither},
      {"upcalls", static_cast<double>(upcalls.delivered_count()), MetricDirection::kEither},
      {"upcall_latency_mean_ms", upcalls.latency_mean_us() / 1000.0,
       MetricDirection::kLowerIsBetter},
      {"upcall_latency_max_ms", static_cast<double>(upcalls.latency_max()) / 1000.0,
       MetricDirection::kLowerIsBetter},
  };
}

// One named cell of the mobility grid.  Everything not listed here keeps
// the MobilityScenarioSpec defaults (1000x1000m arena, 120s at 500ms
// sampling, WaveLAN radio, live tail).  The trial seed picks the concrete
// track and shadowing, so trials of one cell drive different — but
// seed-reproducible — paths through the same world.
struct MobilityCell {
  const char* name;
  MobilityScenarioSpec spec;
};

MobilityCell Cell(const char* name, MobilityModelKind model, BaseStationLayout layout,
                  double speed_scale, double memory) {
  MobilityCell cell{name, {}};
  cell.spec.model = model;
  cell.spec.layout = layout;
  cell.spec.speed_scale = speed_scale;
  cell.spec.memory = memory;
  return cell;
}

void RegisterMobilityTracking(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "mobility_track";
  scenario.description =
      "Mobility: adaptive tracking of motion-generated waveforms per model, layout and gait";
  const MobilityCell cells[] = {
      // Pedestrian random waypoint: the classic evaluation gait, against a
      // lone cell (long fringe shadows) and a cell grid (edge flapping).
      Cell("rwp_walk_single", MobilityModelKind::kRandomWaypoint, BaseStationLayout::kSingleCell,
           1.0, 0.75),
      Cell("rwp_walk_grid", MobilityModelKind::kRandomWaypoint, BaseStationLayout::kCellGrid,
           1.0, 0.75),
      // A runner down a covered corridor: fast crossings between stations.
      Cell("rwp_sprint_corridor", MobilityModelKind::kRandomWaypoint,
           BaseStationLayout::kCorridor, 3.0, 0.75),
      // Street-grid driving at 12 m/s; the crawl variant idles through
      // intersections slowly enough for the estimator to settle per block.
      Cell("manhattan_drive_grid", MobilityModelKind::kManhattanGrid,
           BaseStationLayout::kCellGrid, 1.0, 0.75),
      Cell("manhattan_drive_corridor", MobilityModelKind::kManhattanGrid,
           BaseStationLayout::kCorridor, 1.0, 0.75),
      Cell("manhattan_crawl_single", MobilityModelKind::kManhattanGrid,
           BaseStationLayout::kSingleCell, 0.25, 0.75),
      // Gauss-Markov at the two ends of the memory knob: smooth arcs vs
      // near-Brownian jitter.
      Cell("gauss_markov_smooth_grid", MobilityModelKind::kGaussMarkov,
           BaseStationLayout::kCellGrid, 1.0, 0.9),
      Cell("gauss_markov_jittery_single", MobilityModelKind::kGaussMarkov,
           BaseStationLayout::kSingleCell, 1.0, 0.3),
      // The embedded vehicular trace: fixed motion, so only the radio seed
      // varies across trials.
      Cell("trace_drive_corridor", MobilityModelKind::kWaypointTrace,
           BaseStationLayout::kCorridor, 1.0, 0.75),
      Cell("trace_drive_grid", MobilityModelKind::kWaypointTrace, BaseStationLayout::kCellGrid,
           1.0, 0.75),
  };
  for (const MobilityCell& cell : cells) {
    scenario.variants.push_back(
        {cell.name, [spec = cell.spec](uint64_t seed, TraceRecorder* trace) {
           return RunMobilityTrackingTrial(MakeMobilityWaveform(spec, seed), seed, trace);
         }});
  }
  Add(registry, std::move(scenario));
}

// The Figure 11 adaptive browser over motion-generated waveforms.
void RegisterMobilityWeb(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "mobility_web";
  scenario.description = "Mobility: adaptive Web fetches over motion-generated waveforms";
  const MobilityCell cells[] = {
      Cell("adaptive_manhattan_grid", MobilityModelKind::kManhattanGrid,
           BaseStationLayout::kCellGrid, 1.0, 0.75),
      Cell("adaptive_rwp_single", MobilityModelKind::kRandomWaypoint,
           BaseStationLayout::kSingleCell, 1.0, 0.75),
  };
  for (const MobilityCell& cell : cells) {
    scenario.variants.push_back(
        {cell.name, [spec = cell.spec](uint64_t seed, TraceRecorder* trace) {
           return RunWebTrial(MakeMobilityWaveform(spec, seed), /*fixed_level=*/-1,
                              /*prime=*/true, seed, trace);
         }});
  }
  Add(registry, std::move(scenario));
}

// --- Extension: full-page Web adaptation ---

// A 6 KB page with three inline images fetched once at Web fidelity |level|
// (0 = full quality .. 3 = JPEG(5)), on a fresh rig at each reference
// bandwidth.  Only the 120 KB/s fetch is traced.
TrialMetrics RunPageFetchTrial(int level, uint64_t seed, TraceRecorder* trace) {
  constexpr double kKb = 1024.0;
  double page_kb = 0.0;  // markup + images delivered (the 120 KB/s fetch)
  double high_s = 0.0;
  double low_s = 0.0;
  for (const double bandwidth : {kHighBandwidth, kLowBandwidth}) {
    ExperimentRig rig({.seed = seed, .trace = bandwidth == kHighBandwidth ? trace : nullptr});
    rig.distillation_server().PublishPage("http://origin/guide.html", 6.0 * kKb,
                                          {22.0 * kKb, 11.0 * kKb, 44.0 * kKb});
    const AppId app = rig.client().RegisterApplication("browser");
    rig.Replay(MakeConstant(bandwidth, 5 * kMinute), /*prime=*/false);
    const std::string path = std::string(kOdysseyRoot) + "web/page";
    rig.client().Tsop(app, path, kWebOpenPage, "http://origin/guide.html",
                      [](Status, std::string) {});
    rig.client().Tsop(app, path, kWebSetFidelity, PackStruct(WebSetFidelityRequest{level}),
                      [](Status, std::string) {});
    const Time start = rig.sim().now();
    Time end = start;
    WebPageFetchReply reply;
    // ody_lint: owned-capture
    rig.client().Tsop(app, path, kWebFetchPage, "", [&](Status status, std::string out) {
      if (!status.ok() || !UnpackStruct(out, &reply)) {
        reply = WebPageFetchReply{};
      }
      end = rig.sim().now();
    });
    rig.sim().RunUntil(start + kMinute);
    if (bandwidth == kHighBandwidth) {
      high_s = DurationToSeconds(end - start);
      page_kb = (reply.html_bytes + reply.image_bytes) / kKb;
    } else {
      low_s = DurationToSeconds(end - start);
    }
  }
  return {
      {"page_kb", page_kb, MetricDirection::kEither},
      {"fetch_s_120kbps", high_s, MetricDirection::kLowerIsBetter},
      {"fetch_s_40kbps", low_s, MetricDirection::kLowerIsBetter},
  };
}

void RegisterPageFetch(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ext_page_fetch";
  scenario.description =
      "Extension: page bytes and fetch seconds at 120 and 40 KB/s per Web fidelity level";
  const std::pair<const char*, int> levels[] = {
      {"full", 0}, {"jpeg50", 1}, {"jpeg25", 2}, {"jpeg5", 3}};
  for (const auto& [name, level] : levels) {
    scenario.variants.push_back({name, [level = level](uint64_t seed, TraceRecorder* trace) {
                                   return RunPageFetchTrial(level, seed, trace);
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Extension: recognition-fidelity (vocabulary) levels ---

// At 40 KB/s: a warm-up recognition, then one with latency goal |goal_s|
// (<= 0: no goal).  Reports the vocabulary the warden picked (an index into
// kSpeechVocabularies), its fidelity and the recognition seconds.
TrialMetrics RunVocabularyTrial(double goal_s, uint64_t seed, TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  const AppId app = rig.client().RegisterApplication("speech");
  rig.Replay(MakeConstant(kLowBandwidth, 5 * kMinute), /*prime=*/false);
  const std::string path = std::string(kOdysseyRoot) + "speech/janus";
  // Warm the estimator, then the measured recognition.
  rig.client().Tsop(app, path, kSpeechRecognize, PackStruct(SpeechUtterance{kSpeechRawBytes, 0.0}),
                    [](Status, std::string) {});
  rig.sim().RunUntil(rig.sim().now() + 10 * kSecond);
  const Time start = rig.sim().now();
  Time end = start;
  SpeechResult recognized;
  rig.client().Tsop(app, path, kSpeechRecognize,
                    PackStruct(SpeechUtterance{kSpeechRawBytes, goal_s}),
                    [&](Status status, std::string out) {  // ody_lint: owned-capture
                      if (!status.ok() || !UnpackStruct(out, &recognized)) {
                        recognized = SpeechResult{};
                      }
                      end = rig.sim().now();
                    });
  rig.sim().RunUntil(start + 30 * kSecond);
  return {
      {"vocabulary", static_cast<double>(recognized.vocabulary), MetricDirection::kEither},
      {"fidelity", recognized.fidelity, MetricDirection::kHigherIsBetter},
      {"seconds", DurationToSeconds(end - start), MetricDirection::kLowerIsBetter},
  };
}

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
                                   return RunVocabularyTrial(goal, seed, trace);
                                 }});
  }
  Add(registry, std::move(scenario));
}

// --- Extension: battery and money across the urban walk ---

// Video + web + speech over the Figure 13 walk with a 60-minute battery and
// a 50-cent budget, and a monitor holding windows on both (battery lower
// bound 45 min, money 30 cents).
TrialMetrics RunUrbanResourcesTrial(uint64_t seed, TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  BatteryModel::Config battery_config;
  battery_config.capacity_minutes = 60.0;
  battery_config.network_minutes_per_mb = 0.1;
  BatteryModel battery(&rig.sim(), &rig.client().viceroy(), &rig.link(), battery_config);
  MoneyMeter::Config money_config;
  money_config.budget_cents = 50.0;
  money_config.cents_per_mb = 0.6;
  MoneyMeter money(&rig.sim(), &rig.client().viceroy(), &rig.link(), money_config);

  VideoPlayerOptions video_options;
  video_options.frames_to_play = 10000;
  VideoPlayer video(&rig.client(), video_options);
  WebBrowser web(&rig.client(), WebBrowserOptions{});
  SpeechFrontEnd speech(&rig.client(), SpeechFrontEndOptions{});

  bool battery_upcall = false;
  bool money_upcall = false;
  const AppId monitor = rig.client().RegisterApplication("resource-monitor");
  ResourceDescriptor battery_window;
  battery_window.resource = ResourceId::kBatteryPower;
  battery_window.lower = 45.0;
  // ody_lint: owned-capture
  battery_window.handler = [&](RequestId, ResourceId, double) { battery_upcall = true; };
  ResourceDescriptor money_window;
  money_window.resource = ResourceId::kMoney;
  money_window.lower = 30.0;
  // ody_lint: owned-capture
  money_window.handler = [&](RequestId, ResourceId, double) { money_upcall = true; };

  const Time measure = rig.Replay(MakeUrbanScenario());
  battery.Start();
  money.Start();
  // Both resources start inside their windows (full battery, full budget);
  // a rejected request here would silently disable the warned-upcall path.
  const RequestResult battery_request = rig.client().Request(monitor, battery_window);
  ODY_ASSERT(battery_request.ok(), "battery already outside its window at registration");
  const RequestResult money_request = rig.client().Request(monitor, money_window);
  ODY_ASSERT(money_request.ok(), "money already outside its window at registration");
  video.Start();
  web.Start();
  speech.Start();
  rig.sim().RunUntil(measure + 15 * kMinute);

  return {
      {"mb_moved", rig.link().bytes_delivered() / (1024.0 * 1024.0), MetricDirection::kEither},
      {"battery_left_min", battery.remaining_minutes(), MetricDirection::kHigherIsBetter},
      {"money_left_cents", money.remaining_cents(), MetricDirection::kHigherIsBetter},
      {"battery_upcall", battery_upcall ? 1.0 : 0.0, MetricDirection::kEither},
      {"money_upcall", money_upcall ? 1.0 : 0.0, MetricDirection::kEither},
  };
}

void RegisterUrbanResources(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ext_urban_resources";
  scenario.description =
      "Extension: battery and money left after the urban walk, and whether each window fired";
  scenario.variants.push_back({"urban_walk", RunUrbanResourcesTrial});
  Add(registry, std::move(scenario));
}

// --- Extension: telemetry delivery levels ---

// A background filter watches a 10 Hz feed for two minutes at delivery
// |level| (an index into kTelemetryLevels), with one alert-worthy event
// injected at t = 1 min; alert_lag_s is -1 when no alert fired.
TrialMetrics RunTelemetryTrial(int level, uint64_t seed, TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  TelemetryServer telemetry(&rig.sim());
  telemetry.CreateFeed("stocks/ACME", 100 * kMillisecond, 100.0, 0.05);
  auto* warden = static_cast<TelemetryWarden*>(
      rig.client().InstallWarden(std::make_unique<TelemetryWarden>(&telemetry)));
  FilterApp filter(&rig.client(), warden, FilterAppOptions{"stocks/ACME", 5.0, level});
  rig.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  filter.Start();
  rig.sim().ScheduleAt(kMinute, [&telemetry] {  // ody_lint: owned-capture
    const Status injected = telemetry.InjectEvent("stocks/ACME", 25.0);
    ODY_ASSERT(injected.ok(), "event injected into an unknown feed");
  });
  rig.sim().RunUntil(2 * kMinute);
  filter.Stop();
  rig.sim().RunUntil(2 * kMinute + kSecond);

  return {
      {"samples_per_min", filter.final_stats().samples_delivered / 2.0,
       MetricDirection::kHigherIsBetter},
      {"staleness_ms", filter.final_stats().mean_staleness_ms, MetricDirection::kLowerIsBetter},
      {"alert_lag_s",
       filter.alerts().empty() ? -1.0 : DurationToSeconds(filter.alerts()[0].detection_lag()),
       MetricDirection::kLowerIsBetter},
  };
}

void RegisterTelemetry(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "ext_telemetry";
  scenario.description =
      "Extension: samples/min, staleness and alert lag (-1: none fired) per delivery level";
  for (int level = 0; level < 3; ++level) {
    scenario.variants.push_back(
        {kTelemetryLevels[level].name, [level](uint64_t seed, TraceRecorder* trace) {
           return RunTelemetryTrial(level, seed, trace);
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
  RegisterMobilityTracking(registry);
  RegisterMobilityWeb(registry);
  RegisterPageFetch(registry);
  RegisterVocabulary(registry);
  RegisterUrbanResources(registry);
  RegisterTelemetry(registry);
}

}  // namespace odyssey
