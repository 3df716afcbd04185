#include "src/metrics/scenarios.h"

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/apps/bitstream_app.h"
#include "src/apps/filter_app.h"
#include "src/apps/speech_frontend.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/core/battery_model.h"
#include "src/core/cache_manager.h"
#include "src/core/contract.h"
#include "src/core/money_meter.h"
#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/metrics/trial.h"
#include "src/servers/calibration.h"
#include "src/servers/file_server.h"
#include "src/servers/telemetry_server.h"
#include "src/strategies/centralized.h"
#include "src/trace/trace_macros.h"
#include "src/trace/trace_recorder.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {
namespace {

constexpr Duration kAgilitySamplePeriod = 100 * kMillisecond;

// The adaptive consumer tolerates a ±30% drift around its chosen level.
constexpr double kWindowLowerFactor = 0.7;
constexpr double kWindowUpperFactor = 1.3;

// Holds a window of tolerance around |level|, re-centering on every upcall
// (§4.2's request/upcall/re-request loop).  Each violation is one
// adaptation, recorded as a kApp "adapt" instant.
void RegisterAdaptiveWindow(OdysseyClient* client, AppId app, double level) {
  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kNetworkBandwidth;
  descriptor.lower = kWindowLowerFactor * level;
  descriptor.upper = kWindowUpperFactor * level;
  descriptor.handler = [client, app](RequestId, ResourceId, double new_level) {
    ODY_TRACE_INSTANT1(client->sim()->trace(), kApp, "adapt", client->sim()->now(), app,
                       "level", new_level);
    RegisterAdaptiveWindow(client, app, new_level);
  };
  const RequestResult result = client->Request(app, descriptor);
  if (!result.ok()) {
    // The level moved since the upcall was posted; a window centered on the
    // level the viceroy just reported always admits it, so this recursion
    // terminates on the next call.
    RegisterAdaptiveWindow(client, app, result.current_level);
  }
}

// Waits (in one-second steps) for the estimator's first figures, then
// starts the adaptive loop at the reported level.
void StartAdaptingWhenEstimated(OdysseyClient* client, AppId app) {
  client->sim()->Schedule(kSecond, [client, app] {
    if (!client->HasBandwidthEstimate()) {
      StartAdaptingWhenEstimated(client, app);
      return;
    }
    RegisterAdaptiveWindow(client, app,
                           client->CurrentLevel(app, ResourceId::kNetworkBandwidth));
  });
}

}  // namespace

AgilityTrialResult RunSupplyAgilityTrial(Waveform waveform, uint64_t seed,
                                         TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  BitstreamApp app(&rig.client(), "bitstream");
  const Time measure = rig.Replay(MakeWaveform(waveform));
  app.Start();
  StartAdaptingWhenEstimated(&rig.client(), app.app());

  Sampler sampler(&rig.sim(), kAgilitySamplePeriod, measure, [&rig] {  // ody_lint: owned-capture
    return rig.centralized()->TotalSupply(rig.sim().now());
  });
  // ody_lint: owned-capture
  rig.sim().ScheduleAt(measure, [&] { sampler.Run(measure + kWaveformLength); });
  rig.sim().RunUntil(measure + kWaveformLength);

  const UpcallDispatcher& upcalls = rig.client().viceroy().upcalls();
  AgilityTrialResult result;
  result.series = sampler.series();
  result.upcalls = upcalls.delivered_count();
  result.upcall_latency_mean_ms = upcalls.latency_mean_us() / 1000.0;
  result.upcall_latency_max_ms = static_cast<double>(upcalls.latency_max()) / 1000.0;
  return result;
}

MobilityTrialResult RunMobilityTrackingTrial(const ReplayTrace& replay, uint64_t seed,
                                             TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  BitstreamApp app(&rig.client(), "bitstream");
  const Time measure = rig.Replay(replay);
  const Time end = measure + replay.TotalDuration();
  app.Start();
  StartAdaptingWhenEstimated(&rig.client(), app.app());

  Sampler sampler(&rig.sim(), kAgilitySamplePeriod, measure, [&rig] {  // ody_lint: owned-capture
    return rig.centralized()->TotalSupply(rig.sim().now());
  });
  // ody_lint: owned-capture
  rig.sim().ScheduleAt(measure, [&] { sampler.Run(end); });
  rig.sim().RunUntil(end);

  MobilityTrialResult result;
  uint64_t live = 0;
  uint64_t in_band = 0;
  double error_pct_sum = 0.0;
  for (const SeriesPoint& point : sampler.series()) {
    // Sample timestamps are relative to |measure|, which is also the start
    // of the unprimed replay, so they index the nominal waveform directly.
    const double nominal = replay.BandwidthAt(SecondsToDuration(point.t_seconds));
    if (nominal <= 0.0) {
      result.shadow_seconds += DurationToSeconds(kAgilitySamplePeriod);
      continue;
    }
    ++live;
    error_pct_sum += 100.0 * std::abs(point.value - nominal) / nominal;
    if (point.value >= 0.85 * nominal && point.value <= 1.15 * nominal) {
      ++in_band;
    }
  }
  if (live > 0) {
    result.tracking_error_pct = error_pct_sum / static_cast<double>(live);
    result.in_band_pct = 100.0 * static_cast<double>(in_band) / static_cast<double>(live);
  }
  const UpcallDispatcher& upcalls = rig.client().viceroy().upcalls();
  result.upcalls = upcalls.delivered_count();
  result.upcall_latency_mean_ms = upcalls.latency_mean_us() / 1000.0;
  result.upcall_latency_max_ms = static_cast<double>(upcalls.latency_max()) / 1000.0;
  return result;
}

DemandTrialResult RunDemandAgilityTrial(double utilization, uint64_t seed,
                                        TraceRecorder* trace) {
  constexpr Duration kSamplePeriod = 100 * kMillisecond;
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

  DemandTrialResult out;
  Sampler total_sampler(&rig.sim(), kSamplePeriod, measure, [&rig] {  // ody_lint: owned-capture
    return rig.centralized()->TotalSupply(rig.sim().now());
  });
  // ody_lint: owned-capture
  Sampler share_sampler(&rig.sim(), kSamplePeriod, measure, [&rig, &second] {
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
  out.total = total_sampler.series();
  out.second_share = share_sampler.series();
  return out;
}

VideoTrialResult RunVideoTrial(Waveform waveform, int fixed_track, uint64_t seed,
                               TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  VideoPlayerOptions options;
  options.fixed_track = fixed_track;
  // Play through priming plus the waveform; measure only the 600 frames
  // displayed during the waveform.
  options.frames_to_play = 1000;
  VideoPlayer player(&rig.client(), options);
  const Time measure = rig.Replay(MakeWaveform(waveform));
  player.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  VideoTrialResult result;
  result.drops = player.DropsBetween(measure, measure + kWaveformLength);
  result.fidelity = player.MeanFidelityBetween(measure, measure + kWaveformLength);
  return result;
}

WebTrialResult RunWebTrial(const ReplayTrace& replay, int fixed_level, bool prime,
                           uint64_t seed, TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  WebBrowserOptions options;
  options.fixed_level = fixed_level;
  WebBrowser browser(&rig.client(), options);
  const Time measure = rig.Replay(replay, prime);
  const Time end = measure + replay.TotalDuration();
  browser.Start();
  rig.sim().RunUntil(end);
  browser.Stop();
  WebTrialResult result;
  result.seconds = browser.MeanSecondsBetween(measure, end);
  result.fidelity = browser.MeanFidelityBetween(measure, end);
  return result;
}

double RunSpeechTrialSeconds(Waveform waveform, SpeechMode mode, uint64_t seed,
                             TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .trace = trace});
  SpeechFrontEndOptions options;
  options.mode = mode;
  SpeechFrontEnd frontend(&rig.client(), options);
  const Time measure = rig.Replay(MakeWaveform(waveform));
  frontend.Start();
  rig.sim().RunUntil(measure + kWaveformLength);
  frontend.Stop();
  return frontend.MeanSecondsBetween(measure, measure + kWaveformLength);
}

ConcurrentTrialResult RunConcurrentTrial(const std::string& strategy, uint64_t seed,
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

  ConcurrentTrialResult result;
  result.video_drops = video.DropsBetween(measure, end);
  result.video_fidelity = video.MeanFidelityBetween(measure, end);
  result.web_seconds = web.MeanSecondsBetween(measure, end);
  result.web_fidelity = web.MeanFidelityBetween(measure, end);
  result.speech_seconds = speech.MeanSecondsBetween(measure, end);
  return result;
}

EstimatorAblationTrialResult RunEstimatorAblationTrial(const SupplyModelConfig& config,
                                                       double window_bytes, Waveform waveform,
                                                       uint64_t seed, TraceRecorder* trace) {
  ExperimentRig rig({.seed = seed, .supply = config, .trace = trace});
  BitstreamApp app(&rig.client(), "bitstream");
  const Time measure = rig.Replay(MakeWaveform(waveform));
  app.Start(0.0, window_bytes);
  Sampler sampler(&rig.sim(), 100 * kMillisecond, measure, [&rig] {  // ody_lint: owned-capture
    return rig.centralized()->TotalSupply(rig.sim().now());
  });
  // ody_lint: owned-capture
  rig.sim().ScheduleAt(measure, [&] { sampler.Run(measure + kWaveformLength); });
  rig.sim().RunUntil(measure + kWaveformLength);

  EstimatorAblationTrialResult result;
  const double target = waveform == Waveform::kStepUp ? kHighBandwidth : kLowBandwidth;
  result.settle_s = SettlingTime(sampler.series(), 30.0, 0.85 * target, 1.15 * target);
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
  if (error_count > 0) {
    result.steady_error_pct = error_sum / error_count;
  }
  return result;
}

FairshareTrialResult RunFairshareAblationTrial(const SupplyModelConfig& config, uint64_t seed,
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

  FairshareTrialResult result;
  result.video_drops = video.DropsBetween(measure, end);
  result.video_fidelity = video.MeanFidelityBetween(measure, end);
  result.web_seconds = web.MeanSecondsBetween(measure, end);
  int goal_met = 0;
  int fetches = 0;
  for (const auto& outcome : web.outcomes()) {
    if (outcome.started >= measure && outcome.started < end) {
      ++fetches;
      goal_met += outcome.elapsed <= kWebGoal ? 1 : 0;
    }
  }
  result.web_goal_pct = fetches == 0 ? 0.0 : 100.0 * goal_met / fetches;
  return result;
}

FileConsistencyTrialResult RunFileConsistencyTrial(FileConsistency level, uint64_t seed,
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
  FileConsistencyTrialResult result;
  result.mean_read_ms = reads == 0 ? 0.0 : read_ms_sum / reads;
  result.stale_pct = reads == 0 ? 0.0 : 100.0 * stats.stale_serves / reads;
  result.fidelity = reads == 0 ? 0.0 : fidelity_sum / reads;
  return result;
}

PageFetchTrialResult RunPageFetchTrial(int level, uint64_t seed, TraceRecorder* trace) {
  constexpr double kKb = 1024.0;
  PageFetchTrialResult result;
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
      result.high_s = DurationToSeconds(end - start);
      result.page_kb = (reply.html_bytes + reply.image_bytes) / kKb;
    } else {
      result.low_s = DurationToSeconds(end - start);
    }
  }
  return result;
}

VocabularyTrialResult RunVocabularyTrial(double goal_s, uint64_t seed, TraceRecorder* trace) {
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
  return {recognized.vocabulary, recognized.fidelity, DurationToSeconds(end - start)};
}

UrbanResourcesTrialResult RunUrbanResourcesTrial(uint64_t seed, TraceRecorder* trace) {
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

  UrbanResourcesTrialResult result;
  const AppId monitor = rig.client().RegisterApplication("resource-monitor");
  ResourceDescriptor battery_window;
  battery_window.resource = ResourceId::kBatteryPower;
  battery_window.lower = 45.0;
  // ody_lint: owned-capture
  battery_window.handler = [&](RequestId, ResourceId, double) { result.battery_upcall = true; };
  ResourceDescriptor money_window;
  money_window.resource = ResourceId::kMoney;
  money_window.lower = 30.0;
  // ody_lint: owned-capture
  money_window.handler = [&](RequestId, ResourceId, double) { result.money_upcall = true; };

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

  result.mb_moved = rig.link().bytes_delivered() / (1024.0 * 1024.0);
  result.battery_left_min = battery.remaining_minutes();
  result.money_left_cents = money.remaining_cents();
  return result;
}

TelemetryTrialResult RunTelemetryTrial(int level, uint64_t seed, TraceRecorder* trace) {
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

  TelemetryTrialResult result;
  result.samples_per_min = filter.final_stats().samples_delivered / 2.0;
  result.staleness_ms = filter.final_stats().mean_staleness_ms;
  if (!filter.alerts().empty()) {
    result.alert_lag_s = DurationToSeconds(filter.alerts()[0].detection_lag());
  }
  return result;
}

}  // namespace odyssey
