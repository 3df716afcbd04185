// Quickstart: the Odyssey API in one file.
//
// Builds a mobile client on an emulated network, registers an application,
// expresses a resource expectation (a window of tolerance on network
// bandwidth), and reacts to the upcall when a bandwidth step violates it —
// the request/notify/adapt loop at the heart of application-aware
// adaptation.
//
//   $ ./quickstart

#include <cstdio>
#include <memory>

#include "src/core/odyssey_client.h"
#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/trace/trace_session.h"

using namespace odyssey;

int main(int argc, char** argv) {
  TraceSession trace_session(TraceSession::FromArgs(&argc, argv));
  // One mobile client whose link replays a Step-Down waveform: 120 KB/s for
  // 30 s, then 40 KB/s.  ExperimentRig bundles the simulation, the link,
  // the viceroy, the wardens, and the servers; its RigSpec defaults to the
  // paper's configuration (centralized strategy, 120 KB/s link).
  ExperimentRig rig({.seed = 1, .trace = trace_session.recorder()});
  rig.Replay(MakeStepDown(), /*prime=*/false);

  OdysseyClient& client = rig.client();
  const AppId app = client.RegisterApplication("quickstart");

  // Consume data through the bitstream warden so the viceroy has traffic to
  // observe — Odyssey's monitoring is passive.
  BitstreamParams params{0.0, 0.0};
  client.Tsop(app, "/odyssey/bitstream/stream", kBitstreamStart, PackStruct(params),
              [](Status status, std::string) {
                std::printf("[app] bitstream started: %s\n", status.ToString().c_str());
              });

  // After a few seconds of observation, express our expectation: we are
  // happy as long as at least 80 KB/s is available.
  rig.sim().Schedule(5 * kSecond, [&] {  // ody_lint: owned-capture
    ResourceDescriptor descriptor;
    descriptor.resource = ResourceId::kNetworkBandwidth;
    descriptor.lower = 80.0 * 1024.0;
    // ody_lint: owned-capture
    descriptor.handler = [&](RequestId request, ResourceId, double level) {
      std::printf("[app] t=%.1fs upcall on request %llu: bandwidth now %.1f KB/s"
                  " -- dropping fidelity\n",
                  DurationToSeconds(rig.sim().now()),
                  static_cast<unsigned long long>(request), level / 1024.0);
      // A real application would pick a new fidelity and re-register a
      // window appropriate to it (§4.3); we register a lower one.
      ResourceDescriptor revised;
      revised.resource = ResourceId::kNetworkBandwidth;
      revised.lower = 30.0 * 1024.0;
      revised.handler = [](RequestId, ResourceId, double) {};
      const RequestResult result = client.Request(app, revised);
      std::printf("[app] re-registered window [30 KB/s, inf): %s\n",
                  result.ok() ? "ok" : "out of bounds");
    };
    const RequestResult result = client.Request(app, descriptor);
    std::printf("[app] t=%.1fs registered window [80 KB/s, inf): %s (current %.1f KB/s)\n",
                DurationToSeconds(rig.sim().now()), result.ok() ? "ok" : "out of bounds",
                result.current_level / 1024.0);
  });

  // Periodically show what the viceroy believes.
  for (int t = 5; t <= 55; t += 10) {
    rig.sim().Schedule(t * kSecond, [&] {  // ody_lint: owned-capture
      std::printf("[viceroy] t=%.0fs availability for app: %.1f KB/s\n",
                  DurationToSeconds(rig.sim().now()),
                  client.CurrentLevel(app, ResourceId::kNetworkBandwidth) / 1024.0);
    });
  }

  rig.sim().RunUntil(kWaveformLength);
  std::printf("done: the step down at t=30s triggered exactly one upcall.\n");
  return trace_session.ExportOrWarn() ? 0 : 1;
}
