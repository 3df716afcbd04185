// Disconnected operation: the radio shadow.
//
// §5.3: "In the extreme case of disconnection, the local Janus is capable
// of recognizing the utterance, but at a severe CPU and memory cost."
// This example drives the speech recognizer through a trace that drops all
// the way to zero bandwidth — a deep radio shadow — and shows the adaptive
// warden shifting plans: hybrid while connected, fully local while
// disconnected, and back.
//
//   $ ./disconnection

#include <cstdio>

#include "src/apps/speech_frontend.h"
#include "src/metrics/experiment.h"
#include "src/trace/trace_session.h"

using namespace odyssey;

int main(int argc, char** argv) {
  TraceSession trace_session(TraceSession::FromArgs(&argc, argv));
  ExperimentRig rig({.seed = 1, .strategy = "blind-optimism", .trace = trace_session.recorder()});
  // Blind optimism is the right strategy here on purpose: detecting *zero*
  // bandwidth passively is impossible (no traffic flows, so no
  // observations), and the paper notes the networking layer can notify the
  // system when an interface goes away.  The warden still decides *how* to
  // adapt.
  ReplayTrace trace;
  trace.Append(20 * kSecond, kHighBandwidth, kOneWayLatency);  // connected
  trace.Append(20 * kSecond, 0.0, kOneWayLatency);             // deep shadow
  trace.Append(20 * kSecond, kHighBandwidth, kOneWayLatency);  // reconnected

  SpeechFrontEnd speech(&rig.client(), SpeechFrontEndOptions{});
  rig.Replay(trace, /*prime=*/false);
  speech.Start();
  rig.sim().RunUntil(trace.TotalDuration() + 10 * kSecond);

  const char* plan_names[] = {"adaptive", "hybrid", "remote", "local"};
  std::printf("  t(s)   plan     recognition time\n");
  std::printf("  ------------------------------------\n");
  for (const auto& outcome : speech.outcomes()) {
    std::printf("  %5.1f  %-7s  %.2fs\n", DurationToSeconds(outcome.started),
                plan_names[outcome.plan], DurationToSeconds(outcome.elapsed));
  }

  int local = 0;
  for (const auto& outcome : speech.outcomes()) {
    local += outcome.plan == static_cast<int>(SpeechMode::kAlwaysLocal) ? 1 : 0;
  }
  std::printf(
      "\n%d of %zu recognitions ran fully local during the shadow -- slow (severe\n"
      "CPU cost) but the user kept a working, degraded vocabulary (§2.1).\n",
      local, speech.outcomes().size());
  return trace_session.ExportOrWarn() ? 0 : 1;
}
