// A two-node fleet end to end: two Odyssey clients on separate wireless
// links contend for one shared file server, each arbitrating against the
// fleet-merged view of the *server's* supply rather than its own link alone
// (DESIGN.md §15).  Node B rides out a mid-run outage; watch its peers'
// view of it go stale, the survivor's per-client share widen, and the
// views re-converge once B is back on the air.
//
// Both nodes are built through the same Fleet as the tier_fleet campaign,
// with every node and fleet oracle armed.  The example prints one line per
// second — each node's merged server view, the clamp it implies, and what
// its application is actually granted — plus every adaptation upcall, and
// ends with the oracles' violation count; it exits 1 if any fired.  Pass
// --trace-out=<path> to export a chrome://tracing-viewable trace of the
// whole run.
//
//   $ ./fleet_drive
//   $ ./fleet_drive --trace-out=fleet.json

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/tracking_window.h"
#include "src/check/oracles.h"
#include "src/core/object_namespace.h"
#include "src/core/resource.h"
#include "src/fleet/fleet_node.h"
#include "src/servers/file_server.h"
#include "src/trace/trace_session.h"
#include "src/tracemod/replay_trace.h"
#include "src/wardens/file_warden.h"

using namespace odyssey;

namespace {

constexpr Duration kHorizon = 12 * kSecond;
constexpr Duration kFeedPeriod = 100 * kMillisecond;

// A node's one adaptive application, holding a tracking window.
struct Viewer {
  const char* tag = "?";
  TrackedApp app;
  Endpoint* endpoint = nullptr;
  std::unique_ptr<WindowTracker> windows;
  uint64_t tick = 0;
};

}  // namespace

int main(int argc, char** argv) {
  TraceSession trace_session(TraceSession::FromArgs(&argc, argv));

  constexpr uint64_t kSeed = 1;
  Simulation sim(kSeed);
  sim.set_trace(trace_session.recorder());

  FileServer server(&sim.rng());
  server.Publish("doc/0", 32.0 * 1024.0);
  // One server group: every connection either node opens maps to the
  // shared server.
  Fleet fleet(&sim, kSeed, "odyssey", /*servers=*/1);

  Viewer viewers[2];
  for (int i = 0; i < 2; ++i) {
    auto node = std::make_unique<FleetNode>();
    // Node A holds a steady 160 KB/s; node B's 96 KB/s link dies for two
    // seconds mid-run ([4s, 6s)), taking its fleet traffic with it.
    if (i == 0) {
      node->waveform.Append(kHorizon, 160.0 * 1024.0, 10 * kMillisecond);
    } else {
      node->waveform.Append(kHorizon, 96.0 * 1024.0, 15 * kMillisecond);
      node->plan.WithSeed(7).WithOutage(4 * kSecond, 2 * kSecond);
    }
    node->scenario = MirrorScenario(node->waveform, kHorizon, kSeed);
    const TraceSegment first = node->waveform.At(0);
    std::vector<std::unique_ptr<Warden>> wardens;
    wardens.push_back(std::make_unique<FileWarden>(&server));
    FleetNode* built = fleet.AddNode(std::move(node), first, std::move(wardens));

    Viewer& viewer = viewers[i];
    viewer.tag = i == 0 ? "nodeA" : "nodeB";
    viewer.app.id = built->client->RegisterApplication(std::string("viewer-") + viewer.tag);
    viewer.endpoint = built->client->OpenConnection(viewer.app.id, "fleet-s0");
    viewer.windows = std::make_unique<WindowTracker>(&built->client->viceroy());
  }
  fleet.Connect();

  // The narration of each upcall taps the delivery its node's oracle
  // audits.  Re-arming only swaps in the tap: node 0 keeps the clock hooks
  // Connect() gave it.
  for (size_t i = 0; i < fleet.nodes().size(); ++i) {
    const char* tag = viewers[i].tag;
    Simulation* clock = &sim;
    fleet.nodes()[i]->oracle->Arm(
        /*clock=*/false, [tag, clock](AppId, uint64_t, RequestId, ResourceId, double level, Time) {
          std::printf("%6.1fs  %s: upcall -- level now %5.0f KB/s, re-registering window\n",
                      DurationToSeconds(clock->now()), tag, level / 1024.0);
        });
  }

  std::printf("fleet_drive: 2 clients, 1 shared server; nodeB outage [4s, 6s)\n\n");

  // Synthetic passive observations: each app's connection sees its link's
  // nominal rate, so the local supply estimators have something to chew on.
  std::function<void()> feed = [&] {
    if (sim.now() >= kHorizon) {
      return;
    }
    for (size_t i = 0; i < fleet.nodes().size(); ++i) {
      const ReplayTrace& waveform = fleet.nodes()[i]->waveform;
      Viewer& viewer = viewers[i];
      const double rate = waveform.BandwidthAt(sim.now());
      viewer.endpoint->log().RecordThroughput(sim.now(), rate * DurationToSeconds(kFeedPeriod),
                                              kFeedPeriod);
      if (viewer.tick % 10 == 0) {
        viewer.endpoint->log().RecordRoundTrip(sim.now(), waveform.At(sim.now()).latency);
      }
      ++viewer.tick;
    }
    sim.Post(kFeedPeriod, feed);
  };

  // Real bytes through the warden path once a second, so the outage also
  // interrupts genuine RPC traffic, not just the synthetic feed.
  std::function<void()> sweep = [&] {
    if (sim.now() >= kHorizon) {
      return;
    }
    for (size_t i = 0; i < fleet.nodes().size(); ++i) {
      fleet.nodes()[i]->client->Read(viewers[i].app.id,
                                     std::string(kOdysseyRoot) + "files/doc/0",
                                     [](Status, std::string) {});
    }
    sim.Post(1 * kSecond, sweep);
  };

  // The narration: each node's merged view of the shared server and the
  // per-client cap the clamp derives from it.
  std::function<void()> report = [&] {
    const Time now = sim.now();
    for (size_t i = 0; i < fleet.nodes().size(); ++i) {
      const FleetNode& node = *fleet.nodes()[i];
      const Viewer& viewer = viewers[i];
      const FleetAggregator::ServerView view = node.aggregator->ViewOf(0, now);
      const double cap = node.model->ServerCapFor(0, now);
      const double level =
          node.client->CurrentLevel(viewer.app.id, ResourceId::kNetworkBandwidth);
      if (view.valid) {
        std::printf(
            "%6.1fs  %s: server view %5.0f KB/s from %d node(s), %d active -> cap %5.0f KB/s, "
            "app granted %5.0f KB/s\n",
            DurationToSeconds(now), viewer.tag, view.supply_bps / 1024.0, view.reporting,
            view.active_clients, cap / 1024.0, level / 1024.0);
      } else {
        std::printf("%6.1fs  %s: no server view yet, app granted %5.0f KB/s\n",
                    DurationToSeconds(now), viewer.tag, level / 1024.0);
      }
    }
    if (now < kHorizon) {
      sim.Post(1 * kSecond, report);
    }
  };

  sim.PostAt(4 * kSecond, [] { std::printf("\n   --- nodeB enters its outage ---\n\n"); });
  sim.PostAt(6 * kSecond, [] { std::printf("\n   --- nodeB back on the air ---\n\n"); });

  for (size_t i = 0; i < fleet.nodes().size(); ++i) {
    FleetNode& node = *fleet.nodes()[i];
    node.modulator->Replay(node.waveform);
    node.aggregator->StopAt(kHorizon);
    node.aggregator->Start();
    viewers[i].windows->Register(
        &viewers[i].app,
        node.client->CurrentLevel(viewers[i].app.id, ResourceId::kNetworkBandwidth));
  }
  sim.Post(kFeedPeriod, feed);
  sim.Post(1 * kSecond, sweep);
  sim.Post(1 * kSecond, report);
  Fleet* audited = &fleet;
  ScheduleAudits(&sim, kHorizon, [audited] { audited->SampleOracles(); });
  sim.RunUntil(kHorizon);

  const FleetAggregator::ServerView a = fleet.nodes()[0]->aggregator->ViewOf(0, sim.now());
  const FleetAggregator::ServerView b = fleet.nodes()[1]->aggregator->ViewOf(0, sim.now());
  const double hi = std::max(a.supply_bps, b.supply_bps);
  const double spread = hi > 0.0 ? (hi - std::min(a.supply_bps, b.supply_bps)) / hi : 0.0;

  // The drain tail: queued upcalls deliver before the oracles' final audit.
  sim.RunUntil(kHorizon + kDrainGrace);
  fleet.Finish(kHorizon, kHorizon + kDrainGrace);
  uint64_t violations = fleet.oracle().violation_count();
  std::string details = FormatViolations(fleet.oracle().violations());
  for (const auto& node : fleet.nodes()) {
    violations += node->oracle->violation_count();
    details += FormatViolations(node->oracle->violations());
  }

  const FleetDispatcher& dispatcher = fleet.dispatcher();
  std::printf("\n--- drive complete ---\n");
  std::printf("fleet messages: %llu sent, %llu delivered, %llu dropped\n",
              static_cast<unsigned long long>(dispatcher.messages_sent()),
              static_cast<unsigned long long>(dispatcher.messages_delivered()),
              static_cast<unsigned long long>(dispatcher.messages_dropped()));
  std::printf("reports broadcast: nodeA %llu, nodeB %llu\n",
              static_cast<unsigned long long>(fleet.nodes()[0]->aggregator->reports_broadcast()),
              static_cast<unsigned long long>(fleet.nodes()[1]->aggregator->reports_broadcast()));
  std::printf("final view spread: %.2f%% (views re-converged after the outage)\n",
              spread * 100.0);
  std::printf("oracle violations: %llu\n%s", static_cast<unsigned long long>(violations),
              details.c_str());
  std::printf(
      "\nEach node bounded its own claim by the fleet's merged estimate of\n"
      "the shared server -- the per-server fair share the tier_fleet\n"
      "campaign's oracles audit (DESIGN.md SS15).\n");
  const bool exported = trace_session.ExportOrWarn();
  return exported && violations == 0 ? 0 : 1;
}
