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
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/servers/distillation_server.h"
#include "src/servers/janus_server.h"
#include "src/servers/video_server.h"
#include "src/sim/simulation.h"
#include "src/tracemod/waveforms.h"
#include "src/wardens/bitstream_warden.h"
#include "src/wardens/speech_warden.h"
#include "src/wardens/video_warden.h"
#include "src/wardens/web_warden.h"

namespace odyssey {

// The default test movie and image the workloads use.
inline constexpr char kDefaultMovie[] = "default";
inline constexpr char kTestImageUrl[] = "http://origin/test-image.jpg";

// The modeled servers of §6.1.3 — video, distillation and Janus — holding
// the default movie and test image.  Each server draws its session jitter
// from |rng| as it is constructed, so where a rig builds its farm is part
// of the rig's random stream.
struct ServerFarm {
  explicit ServerFarm(Rng* rng);

  // One warden per server, in install order: video, web, speech.
  std::vector<std::unique_ptr<Warden>> Wardens();

  VideoServer video;
  DistillationServer distillation;
  JanusServer janus;
};

// Cost of delivering an upcall into an application (signal handler plus
// library dispatch), per the paper's measured upcall propagation latency
// (§6.4: sub-millisecond for a handful of registered applications).
inline constexpr Duration kUpcallLatency = 550;  // 0.55 ms

class ExperimentRig {
 public:
  // Builds the full client stack with the given trial |seed| and the
  // StrategyRegistry entry named |strategy| ("odyssey", "laissez-faire",
  // ...).  The link starts at the high bandwidth until a trace is replayed.
  ExperimentRig(uint64_t seed, const std::string& strategy);

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
  VideoServer& video_server() { return farm_.video; }
  DistillationServer& distillation_server() { return farm_.distillation; }
  JanusServer& janus_server() { return farm_.janus; }

  // The installed strategy's audit surface (for share probes in the
  // agility experiments); null for isolated-estimate strategies.  For the
  // admission broker this is the inner estimator.
  CentralizedStrategy* centralized() { return client_->viceroy().strategy().audit_surface(); }

 private:
  Simulation sim_;
  Link link_;
  Modulator modulator_;
  std::unique_ptr<OdysseyClient> client_;
  ServerFarm farm_;
};

}  // namespace odyssey

#endif  // SRC_METRICS_EXPERIMENT_H_
