// Background information filtering (§2.3).
//
// "An information filtering application may run in the background
// monitoring data such as stock prices or enemy movements, and alert the
// user as appropriate."  A filter watches two telemetry feeds while the
// foreground video narration plays; when the link degrades, the telemetry
// warden thins its sampling rate and batches deliveries (the §2.2 fidelity
// dimensions for telemetry), and alert detection lag grows accordingly —
// but the alerts still arrive.
//
//   $ ./background_filter

#include <cstdio>
#include <memory>

#include "src/apps/filter_app.h"
#include "src/apps/video_player.h"
#include "src/core/contract.h"
#include "src/metrics/experiment.h"
#include "src/servers/telemetry_server.h"
#include "src/trace/trace_session.h"
#include "src/wardens/telemetry_warden.h"

using namespace odyssey;

int main(int argc, char** argv) {
  TraceSession trace_session(TraceSession::FromArgs(&argc, argv));
  ExperimentRig rig({.seed = 1, .trace = trace_session.recorder()});
  TelemetryServer telemetry(&rig.sim());
  telemetry.CreateFeed("stocks/ACME", 100 * kMillisecond, 100.0, 0.05);
  telemetry.CreateFeed("scout/sector-7", 200 * kMillisecond, 0.0, 0.02);
  auto* warden = static_cast<TelemetryWarden*>(
      rig.client().InstallWarden(std::make_unique<TelemetryWarden>(&telemetry)));

  // Foreground: the video narration.  Background: two filters.
  VideoPlayerOptions video_options;
  video_options.frames_to_play = 3000;
  VideoPlayer video(&rig.client(), video_options);
  FilterApp stocks(&rig.client(), warden, FilterAppOptions{"stocks/ACME", 5.0, -1});
  FilterApp scout(&rig.client(), warden, FilterAppOptions{"scout/sector-7", 1.0, -1});

  // Five minutes: good connectivity, then a weak stretch, then recovery.
  ReplayTrace trace;
  trace.Append(2 * kMinute, kHighBandwidth, kOneWayLatency);
  trace.Append(2 * kMinute, 8.0 * 1024.0, kOneWayLatency);  // weak fringe
  trace.Append(1 * kMinute, kHighBandwidth, kOneWayLatency);
  rig.Replay(trace, /*prime=*/false);
  video.Start();
  stocks.Start();
  scout.Start();

  // Market/field events land in both phases.
  const Time events[] = {60 * kSecond, 180 * kSecond, 260 * kSecond};
  for (const Time at : events) {
    rig.sim().ScheduleAt(at, [&telemetry] {  // ody_lint: owned-capture
      const Status stock_event = telemetry.InjectEvent("stocks/ACME", 25.0);
      ODY_ASSERT(stock_event.ok(), "event injected into an unknown feed");
      const Status scout_event = telemetry.InjectEvent("scout/sector-7", 10.0);
      ODY_ASSERT(scout_event.ok(), "event injected into an unknown feed");
    });
  }

  rig.sim().RunUntil(trace.TotalDuration());
  stocks.Stop();
  scout.Stop();
  rig.sim().RunUntil(trace.TotalDuration() + kSecond);

  std::printf("foreground video: %d drops over 5 min, fidelity %.2f\n",
              video.DropsBetween(0, trace.TotalDuration()),
              video.MeanFidelityBetween(0, trace.TotalDuration()));
  const auto print_filter = [](const char* name, const FilterApp& filter) {
    std::printf("\n%s: %d samples seen, %zu alerts, warden at level %d after %d changes\n",
                name, filter.samples_seen(), filter.alerts().size(),
                filter.final_stats().current_level, filter.final_stats().level_changes);
    for (const FilterAlert& alert : filter.alerts()) {
      std::printf("  alert at t=%6.1fs value %.1f (detected %.2fs after the event)\n",
                  DurationToSeconds(alert.at), alert.value,
                  DurationToSeconds(alert.detection_lag()));
    }
  };
  print_filter("stocks/ACME  ", stocks);
  print_filter("scout/sector7", scout);
  std::printf(
      "\nDuring the weak stretch the warden dropped to a thinner delivery level:\n"
      "alerts arrive later but the background filters never starve the video.\n");
  return trace_session.ExportOrWarn() ? 0 : 1;
}
