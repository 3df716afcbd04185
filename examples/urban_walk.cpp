// The motivating scenario of §2.1: a user walks through an urban setting
// while three applications — a video narration, a Web browser, and a speech
// recognizer — adapt concurrently as the wireless overlay network comes and
// goes (the Figure 13 trace).
//
// The example prints an adaptation timeline: every track switch, fidelity
// change, and per-minute summary, showing the collaborative partnership
// between the viceroy (which notices bandwidth changes) and the
// applications (which decide how to adapt).
//
//   $ ./urban_walk

#include <cstdio>
#include <string>

#include "src/apps/speech_frontend.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/metrics/experiment.h"
#include "src/trace/trace_session.h"

using namespace odyssey;

int main(int argc, char** argv) {
  TraceSession trace_session(TraceSession::FromArgs(&argc, argv));
  ExperimentRig rig({.seed = 1, .trace = trace_session.recorder()});
  const ReplayTrace trace = MakeUrbanScenario();

  VideoPlayerOptions video_options;
  video_options.frames_to_play = 9200;  // the walk is 15 minutes at 10 fps
  VideoPlayer video(&rig.client(), video_options);
  WebBrowser web(&rig.client(), WebBrowserOptions{});
  SpeechFrontEnd speech(&rig.client(), SpeechFrontEndOptions{});

  // ody_lint: owned-capture
  rig.modulator().AddTransitionListener([&](const TraceSegment& segment) {
    std::printf("%6.1fs  [network] %s (%.0f KB/s)\n", DurationToSeconds(rig.sim().now()),
                segment.bandwidth_bps > 64.0 * 1024.0 ? "good connectivity" : "radio shadow edge",
                segment.bandwidth_bps / 1024.0);
  });

  const Time start = rig.sim().now();
  rig.Replay(trace, /*prime=*/false);
  video.Start();
  web.Start();
  speech.Start();

  // Narrate once a minute: what fidelity is everyone running at?
  const char* track_names[] = {"JPEG(99)", "JPEG(50)", "B/W"};
  for (int minute = 1; minute <= 15; ++minute) {
    rig.sim().Schedule(minute * kMinute, [&, minute] {  // ody_lint: owned-capture
      const Time begin = start + (minute - 1) * kMinute;
      const Time end = start + minute * kMinute;
      std::printf(
          "%6.1fs  [minute %2d] video: track %-8s %3d drops, fidelity %.2f | "
          "web: %.2fs/fetch fidelity %.2f | speech: %.2fs\n",
          DurationToSeconds(rig.sim().now()), minute, track_names[video.current_track()],
          video.DropsBetween(begin, end), video.MeanFidelityBetween(begin, end),
          web.MeanSecondsBetween(begin, end), web.MeanFidelityBetween(begin, end),
          speech.MeanSecondsBetween(begin, end));
    });
  }

  rig.sim().RunUntil(trace.TotalDuration());

  std::printf("\n--- walk complete ---\n");
  std::printf("video: %d drops over 15 min, mean fidelity %.2f, %d track switches\n",
              video.DropsBetween(0, trace.TotalDuration()),
              video.MeanFidelityBetween(0, trace.TotalDuration()), video.track_switches());
  std::printf("web:   %.2fs mean fetch, fidelity %.2f\n",
              web.MeanSecondsBetween(0, trace.TotalDuration()),
              web.MeanFidelityBetween(0, trace.TotalDuration()));
  std::printf("speech: %.2fs mean recognition\n",
              speech.MeanSecondsBetween(0, trace.TotalDuration()));
  std::printf(
      "\nThe user saw fidelity shift as she walked, but never had to initiate\n"
      "adaptation herself -- those decisions were delegated to Odyssey (§2.1).\n");
  return trace_session.ExportOrWarn() ? 0 : 1;
}
