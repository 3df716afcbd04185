// Extension bench (beyond the paper's figures): the §8 roadmap features
// this repository implements on top of the SOSP'97 evaluation.
//
//   [1] Consistency as fidelity: the file warden's strict / periodic /
//       optimistic / adaptive levels on the Step-Down waveform, with a
//       server-side writer updating files underneath the cache.
//   [2] Full-page Web adaptation: fetch time per fidelity level for a page
//       of markup plus inline images, at both reference bandwidths.
//   [3] Recognition-fidelity levels: the speech vocabulary the warden picks
//       for a sweep of latency goals, with the achieved time.
//   [4] Full-resource management: battery and money draining across the
//       urban walk, with the low-resource upcalls they trigger.
//   [5] Telemetry fidelity: sampling rate and timeliness per delivery
//       level, and the background filter's alert-detection lag.

#include <iostream>

#include "bench/bench_util.h"
#include "src/apps/filter_app.h"
#include "src/apps/speech_frontend.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/core/battery_model.h"
#include "src/core/contract.h"
#include "src/core/money_meter.h"
#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/metrics/scenarios.h"
#include "src/servers/telemetry_server.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {
namespace {

// Set by main(); the first trial claims the --trace-out recorder.
TraceSession* g_trace_session = nullptr;

constexpr double kKb = 1024.0;

// --- [1] File consistency levels ---

struct FileRunResult {
  std::vector<double> mean_read_ms;
  std::vector<double> stale_pct;
  std::vector<double> fidelity;
};

FileRunResult RunFileConsistency(FileConsistency level) {
  FileRunResult result;
  for (int trial = 0; trial < kPaperTrials; ++trial) {
    const FileConsistencyTrialResult outcome = RunFileConsistencyTrial(
        level, static_cast<uint64_t>(trial + 1), g_trace_session->ClaimRecorderOnce());
    result.mean_read_ms.push_back(outcome.mean_read_ms);
    result.stale_pct.push_back(outcome.stale_pct);
    result.fidelity.push_back(outcome.fidelity);
  }
  return result;
}

void RunFileSection() {
  std::cout << "\n[1] Consistency as a fidelity dimension (file warden, Step-Down,\n"
               "    server-side writer updating files every 2 s)\n";
  Table table({"Consistency", "mean read ms", "stale serves %", "fidelity"});
  for (const FileConsistency level :
       {FileConsistency::kStrict, FileConsistency::kPeriodic, FileConsistency::kOptimistic,
        FileConsistency::kAdaptive}) {
    const FileRunResult result = RunFileConsistency(level);
    table.AddRow({FileConsistencyName(level), MeanStd(result.mean_read_ms, 1),
                  MeanStd(result.stale_pct, 1), MeanStd(result.fidelity, 2)});
  }
  table.Print(std::cout);
  std::cout << "Expected shape: strict pays a validation round trip per read and never\n"
               "serves stale data; optimistic is fastest but exposes stale copies; the\n"
               "adaptive level sits between, degrading consistency as bandwidth falls.\n";
}

// --- [2] Full-page Web adaptation ---

void RunPageSection() {
  std::cout << "\n[2] Full-page Web adaptation (6 KB markup + 3 inline images)\n";
  Table table({"Level", "page bytes KB", "fetch s @120KB/s", "fetch s @40KB/s"});
  for (int level = 0; level < 4; ++level) {
    std::vector<double> bytes_kb;
    std::vector<double> high_s;
    std::vector<double> low_s;
    for (int trial = 0; trial < kPaperTrials; ++trial) {
      for (const double bandwidth : {kHighBandwidth, kLowBandwidth}) {
        ExperimentRig rig(static_cast<uint64_t>(trial + 1), "odyssey");
        rig.sim().set_trace(g_trace_session->ClaimRecorderOnce());
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
          high_s.push_back(DurationToSeconds(end - start));
          bytes_kb.push_back((reply.html_bytes + reply.image_bytes) / kKb);
        } else {
          low_s.push_back(DurationToSeconds(end - start));
        }
      }
    }
    table.AddRow({WebFidelityName(static_cast<WebFidelity>(level)), MeanStd(bytes_kb, 1),
                  MeanStd(high_s, 2), MeanStd(low_s, 2)});
  }
  table.Print(std::cout);
  std::cout << "Expected shape: markup never shrinks, so page size floors at 6 KB; image\n"
               "distillation still buys a large latency win at the low bandwidth.\n";
}

// --- [3] Speech vocabulary levels ---

void RunVocabularySection() {
  std::cout << "\n[3] Recognition-fidelity levels (latency-goal sweep, 40 KB/s)\n";
  Table table({"goal s", "vocabulary", "fidelity", "achieved s"});
  for (const double goal : {0.0, 1.0, 0.75, 0.5, 0.3}) {
    std::vector<double> fidelity;
    std::vector<double> achieved;
    int vocabulary = 0;
    for (int trial = 0; trial < kPaperTrials; ++trial) {
      ExperimentRig rig(static_cast<uint64_t>(trial + 1), "odyssey");
      rig.sim().set_trace(g_trace_session->ClaimRecorderOnce());
      const AppId app = rig.client().RegisterApplication("speech");
      rig.Replay(MakeConstant(kLowBandwidth, 5 * kMinute), /*prime=*/false);
      const std::string path = std::string(kOdysseyRoot) + "speech/janus";
      // Warm the estimator, then the measured recognition.
      bool warm = false;
      rig.client().Tsop(app, path, kSpeechRecognize,
                        PackStruct(SpeechUtterance{kSpeechRawBytes, 0.0}),
                        [&](Status, std::string) { warm = true; });  // ody_lint: owned-capture
      rig.sim().RunUntil(rig.sim().now() + 10 * kSecond);
      const Time start = rig.sim().now();
      Time end = start;
      SpeechResult result;
      rig.client().Tsop(app, path, kSpeechRecognize,
                        PackStruct(SpeechUtterance{kSpeechRawBytes, goal}),
                        [&](Status status, std::string out) {  // ody_lint: owned-capture
                          if (!status.ok() || !UnpackStruct(out, &result)) {
                            result = SpeechResult{};
                          }
                          end = rig.sim().now();
                        });
      rig.sim().RunUntil(start + 30 * kSecond);
      fidelity.push_back(result.fidelity);
      achieved.push_back(DurationToSeconds(end - start));
      vocabulary = result.vocabulary;
    }
    table.AddRow({goal <= 0.0 ? "none" : Fmt(goal, 2), kSpeechVocabularies[vocabulary].name,
                  MeanStd(fidelity, 2), MeanStd(achieved, 2)});
  }
  table.Print(std::cout);
  std::cout << "Expected shape: tighter goals force smaller vocabularies — fidelity\n"
               "steps down 1.0 -> 0.7 -> 0.3 while recognition time tracks the goal.\n";
}

// --- [4] Battery and money across the urban walk ---

void RunResourceSection() {
  std::cout << "\n[4] Full-resource management on the urban walk (battery + money)\n";
  Table table({"trial", "MB moved", "battery left min", "money left cents",
               "battery upcall", "money upcall"});
  for (int trial = 0; trial < kPaperTrials; ++trial) {
    ExperimentRig rig(static_cast<uint64_t>(trial + 1), "odyssey");
    rig.sim().set_trace(g_trace_session->ClaimRecorderOnce());
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

    const AppId monitor = rig.client().RegisterApplication("resource-monitor");
    bool battery_warned = false;
    bool money_warned = false;
    ResourceDescriptor battery_window;
    battery_window.resource = ResourceId::kBatteryPower;
    battery_window.lower = 45.0;
    // ody_lint: owned-capture
    battery_window.handler = [&](RequestId, ResourceId, double) { battery_warned = true; };
    ResourceDescriptor money_window;
    money_window.resource = ResourceId::kMoney;
    money_window.lower = 30.0;
    // ody_lint: owned-capture
    money_window.handler = [&](RequestId, ResourceId, double) { money_warned = true; };

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

    table.AddRow({std::to_string(trial + 1),
                  Fmt(rig.link().bytes_delivered() / (1024.0 * 1024.0), 1),
                  Fmt(battery.remaining_minutes(), 1), Fmt(money.remaining_cents(), 1),
                  battery_warned ? "fired" : "-", money_warned ? "fired" : "-"});
  }
  table.Print(std::cout);
  std::cout << "Expected shape: the 15.5-minute walk costs ~16 minutes of idle battery\n"
               "plus ~0.1 min/MB of radio energy; the battery window (lower bound 45\n"
               "min) fires mid-walk, the money window (30 cents) fires once ~20 cents\n"
               "of metered traffic has passed.\n";
}

// --- [5] Telemetry delivery levels ---

void RunTelemetrySection() {
  std::cout << "\n[5] Telemetry fidelity: sampling rate and timeliness (10 Hz feed)\n";
  Table table({"Level", "samples/min", "staleness ms", "alert lag s"});
  for (int level = 0; level < 3; ++level) {
    std::vector<double> rate;
    std::vector<double> staleness;
    std::vector<double> lag;
    for (int trial = 0; trial < kPaperTrials; ++trial) {
      ExperimentRig rig(static_cast<uint64_t>(trial + 1), "odyssey");
      rig.sim().set_trace(g_trace_session->ClaimRecorderOnce());
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
      rate.push_back(filter.final_stats().samples_delivered / 2.0);
      staleness.push_back(filter.final_stats().mean_staleness_ms);
      if (!filter.alerts().empty()) {
        lag.push_back(DurationToSeconds(filter.alerts()[0].detection_lag()));
      }
    }
    table.AddRow({kTelemetryLevels[level].name, MeanStd(rate, 1), MeanStd(staleness, 0),
                  MeanStd(lag, 2)});
  }
  table.Print(std::cout);
  std::cout << "Expected shape: each level cuts the delivered sampling rate and grows\n"
               "staleness by roughly an order of magnitude; alert-detection lag tracks\n"
               "the timeliness fidelity (§2.2's telemetry dimensions).\n";
}

}  // namespace
}  // namespace odyssey

int main(int argc, char** argv) {
  odyssey::TraceSession trace_session = odyssey::TraceSession::FromArgs(&argc, argv);
  odyssey::g_trace_session = &trace_session;
  odyssey::PrintBanner("Extension Bench: the §8 Roadmap Features",
                       "consistency fidelity, page adaptation, vocabulary levels, full "
                       "resources; 5 trials");
  odyssey::RunFileSection();
  odyssey::RunPageSection();
  odyssey::RunVocabularySection();
  odyssey::RunResourceSection();
  odyssey::RunTelemetrySection();
  return trace_session.ExportOrWarn() ? 0 : 1;
}
