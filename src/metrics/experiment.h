// The experiment rig: one mobile client, its modulated link, the Odyssey
// ensemble, and the modeled servers — §6.1.3's hardware configuration in
// simulation.  Integration tests and every benchmark build on this.

#ifndef SRC_METRICS_EXPERIMENT_H_
#define SRC_METRICS_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/odyssey_client.h"
#include "src/estimator/supply_model.h"
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/servers/distillation_server.h"
#include "src/servers/file_server.h"
#include "src/servers/janus_server.h"
#include "src/servers/telemetry_server.h"
#include "src/servers/video_server.h"
#include "src/sim/simulation.h"
#include "src/tracemod/replay_trace.h"
#include "src/tracemod/waveforms.h"
#include "src/wardens/bitstream_warden.h"
#include "src/wardens/speech_warden.h"
#include "src/wardens/video_warden.h"
#include "src/wardens/web_warden.h"

namespace odyssey {

class TraceRecorder;

// The default test movie and image the workloads use.
inline constexpr char kDefaultMovie[] = "default";
inline constexpr char kTestImageUrl[] = "http://origin/test-image.jpg";

// The modeled servers of §6.1.3 — video, distillation and Janus — holding
// the default movie and test image.  Each server draws its session jitter
// from |rng| as it is constructed, so where a rig builds its farm is part
// of the rig's random stream.
struct ServerFarm {
  explicit ServerFarm(Rng* rng);
  virtual ~ServerFarm() = default;

  // The wardens over these servers, in install order: video, web, speech,
  // then the server-less bitstream warden.
  virtual std::vector<std::unique_ptr<Warden>> Wardens();

  VideoServer video;
  DistillationServer distillation;
  JanusServer janus;
};

// Published objects every fuzz scenario can address (variant selects among
// them).
inline constexpr int kFuzzFiles = 4;
inline constexpr char kFuzzFeed[] = "feed0";

// Every server a fuzzed app can reach: the farm, the kFuzzFiles documents
// and the kFuzzFeed telemetry feed.  Construction draws session jitter and
// schedules the feed.
struct FuzzServers : ServerFarm {
  explicit FuzzServers(Simulation* sim);

  // The six wardens, in install order: video, web, speech, bitstream, file,
  // telemetry.
  std::vector<std::unique_ptr<Warden>> Wardens() override;

  FileServer files;
  TelemetryServer telemetry;
};

// Cost of delivering an upcall into an application (signal handler plus
// library dispatch), per the paper's measured upcall propagation latency
// (§6.4: sub-millisecond for a handful of registered applications).
inline constexpr Duration kUpcallLatency = 550;  // 0.55 ms

// Which servers a rig builds, and so which wardens its client installs.
enum class RigServers {
  kPaper,  // ServerFarm: video, web, speech and bitstream wardens
  kFuzz,   // FuzzServers: all six wardens
  kNone,   // nothing; synthetic rigs open their own connections
};

// Everything a single-client rig varies.  The defaults are the paper's
// configuration (§6.1.3): the Odyssey strategy, the default estimator, the
// link at the high bandwidth, and the paper farm.
struct RigSpec {
  uint64_t seed = 1;
  std::string strategy = "odyssey";  // a StrategyRegistry name
  SupplyModelConfig supply{};
  // The link's starting bandwidth and latency (duration unused) until a
  // trace is replayed.
  TraceSegment link{0, kHighBandwidth, kOneWayLatency};
  // The pre-scale reference stack: the naive full-rescan supply model is
  // offered as the injected model.  Only the centralized family (odyssey,
  // congestion-manager, admission-broker) takes it, so their re-evaluation
  // hints are inexact and the viceroy scans every window holder; a
  // laissez-faire or blind-optimism reference rig is its production rig.
  bool reference = false;
  RigServers servers = RigServers::kPaper;
  TraceRecorder* trace = nullptr;  // borrowed; attached before the servers are built
};

// The one place a single-client stack is built.  The build order is fixed:
// trace, link, modulator, servers, strategy, client, wardens.
// Construction order sets both the random-draw order (the servers draw
// session jitter) and the same-timestamp tie order (the fuzz servers
// schedule their feed), so every golden depends on it.
class ExperimentRig {
 public:
  explicit ExperimentRig(const RigSpec& spec);
  ExperimentRig(uint64_t seed, const std::string& strategy)
      : ExperimentRig(RigSpec{.seed = seed, .strategy = strategy}) {}

  ExperimentRig(const ExperimentRig&) = delete;
  ExperimentRig& operator=(const ExperimentRig&) = delete;

  // Starts replaying |trace| immediately (with the paper's 30-second
  // priming prefix if |prime| is true) and returns the virtual time at
  // which the measured portion begins.
  Time Replay(const ReplayTrace& trace, bool prime = true);

  Simulation& sim() { return sim_; }
  Link& link() { return link_; }
  Modulator& modulator() { return modulator_; }
  OdysseyClient& client() { return *client_; }
  // The farm's servers; the rig must have been built with servers.
  VideoServer& video_server() { return farm().video; }
  DistillationServer& distillation_server() { return farm().distillation; }
  JanusServer& janus_server() { return farm().janus; }

  // The installed strategy's audit surface (for share probes in the
  // agility experiments); null for isolated-estimate strategies.  For the
  // admission broker this is the inner estimator.
  CentralizedStrategy* centralized() { return client_->viceroy().strategy().audit_surface(); }

 private:
  ServerFarm& farm();

  Simulation sim_;
  Link link_;
  Modulator modulator_;
  // Declared before the client so the wardens go before their servers.
  std::unique_ptr<ServerFarm> servers_;
  std::unique_ptr<OdysseyClient> client_;
};

}  // namespace odyssey

#endif  // SRC_METRICS_EXPERIMENT_H_
