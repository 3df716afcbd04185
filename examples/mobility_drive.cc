// A mobility-generated scenario end to end: a driver follows a Manhattan
// street grid through a cell-grid coverage layout while a speech recognizer
// and a Web browser adapt to the waveform the motion produces.  Unlike
// urban_walk (which replays the hand-authored Figure 13 trace), every
// bandwidth transition here is caused by the modeled position — the same
// src/mobility pipeline behind the tier_mobility campaign and the fuzzer's
// mobility dimension (DESIGN.md §14).
//
// The example prints the drive timeline — each tier change annotated with
// the vehicle's position — and a closing summary.  Pass
// --trace-out=<path> to export a chrome://tracing-viewable trace of the
// whole run.
//
//   $ ./mobility_drive
//   $ ./mobility_drive --trace-out=drive.json

#include <cstdio>
#include <memory>

#include "src/apps/speech_frontend.h"
#include "src/apps/web_browser.h"
#include "src/metrics/experiment.h"
#include "src/mobility/mobility_model.h"
#include "src/mobility/radio_environment.h"
#include "src/mobility/waveform_source.h"
#include "src/trace/trace_session.h"

using namespace odyssey;

int main(int argc, char** argv) {
  TraceSession trace_session(TraceSession::FromArgs(&argc, argv));

  // The spec is the whole scenario: a ~8x-pedestrian Manhattan drive under
  // grid coverage, two simulated minutes.  The same (spec, seed) pair
  // always yields this exact drive.
  MobilityScenarioSpec spec;
  spec.model = MobilityModelKind::kManhattanGrid;
  spec.layout = BaseStationLayout::kCellGrid;
  spec.speed_scale = 8.0;
  constexpr uint64_t kSeed = 1;

  const std::unique_ptr<MobilityModel> model = MakeMobilityModel(spec, kSeed);
  const ReplayTrace waveform = MakeMobilityWaveform(spec, kSeed);
  std::printf("mobility_drive: %s over %s, %zu waveform segments in %.0f s\n\n",
              model->name(), BaseStationLayoutName(spec.layout), waveform.segments().size(),
              DurationToSeconds(waveform.TotalDuration()));

  ExperimentRig rig({.seed = kSeed, .trace = trace_session.recorder()});

  SpeechFrontEnd speech(&rig.client(), SpeechFrontEndOptions{});
  WebBrowser web(&rig.client(), WebBrowserOptions{});

  // Narrate each tier change with where the vehicle is when it happens.
  // ody_lint: owned-capture
  rig.modulator().AddTransitionListener([&](const TraceSegment& segment) {
    const Time now = rig.sim().now();
    const Vec2 position = model->PositionAt(now);
    std::printf("%6.1fs  at (%4.0f, %4.0f) m: %7.0f KB/s%s\n", DurationToSeconds(now),
                position.x, position.y, segment.bandwidth_bps / 1024.0,
                segment.bandwidth_bps <= 0.0 ? "  -- radio shadow" : "");
  });

  rig.Replay(waveform, /*prime=*/false);
  speech.Start();
  web.Start();
  rig.sim().RunUntil(waveform.TotalDuration());

  std::printf("\n--- drive complete ---\n");
  std::printf("speech: %.2fs mean recognition\n",
              speech.MeanSecondsBetween(0, waveform.TotalDuration()));
  std::printf("web:    %.2fs mean fetch, fidelity %.2f\n",
              web.MeanSecondsBetween(0, waveform.TotalDuration()),
              web.MeanFidelityBetween(0, waveform.TotalDuration()));
  std::printf(
      "\nEvery transition above was caused by motion: position -> path loss\n"
      "-> SNR -> bandwidth tier, sampled into the same ReplayTrace the\n"
      "hand-authored scenarios use (DESIGN.md SS14).\n");
  return trace_session.ExportOrWarn() ? 0 : 1;
}
