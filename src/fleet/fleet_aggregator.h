// Discovery and estimate aggregation for one fleet node (DESIGN.md §15).
//
// Each node runs a FleetAggregator that (a) periodically announces the
// servers it talks to and broadcasts its latest per-server supply estimates
// over the FleetDispatcher, and (b) folds every received report into a
// per-(server, origin) table keyed by the report's sequence number.  The
// merged per-server view is a staleness-weighted average over the latest
// report of each origin, computed on demand:
//
//     weight(report) = 2^(-(now - sent_at) / staleness_tau)
//     supply(server) = sum(w_i * supply_i) / sum(w_i)
//
// Determinism under reordering: a report only replaces a slot when its seq
// is strictly higher, and the merge iterates origins in ascending id, so
// the view is a pure function of the delivered message *set* and |now| —
// never of arrival order.  Announce phases are SplitMix64-derived from
// (seed, node id), so no two nodes share a phase by accident and no draw
// touches the simulation's own stream.

#ifndef SRC_FLEET_FLEET_AGGREGATOR_H_
#define SRC_FLEET_FLEET_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/fleet/fleet_dispatcher.h"
#include "src/fleet/fleet_message.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace odyssey {

struct FleetAggregatorConfig {
  // Cadence of the periodic announce/estimate broadcast.
  Duration announce_period = 500 * kMillisecond;
  // Staleness half-life of the merge: a report's weight halves every tau.
  Duration staleness_tau = 2 * kSecond;
  // Reports older than this leave the merge entirely.
  Duration stale_after = 10 * kSecond;
  // An origin whose latest report is older than this (or shows no active
  // connections) stops counting toward the per-server active-client count,
  // mirroring SupplyModelConfig::activity_window.
  Duration activity_window = 5 * kSecond;
};

class FleetAggregator {
 public:
  // What the node publishes for one server each announce round.
  struct LocalReport {
    FleetServerId server = 0;
    double supply_bps = 0.0;
    double usage_bps = 0.0;
    int32_t active = 0;
  };
  using ReportSource = std::function<std::vector<LocalReport>()>;

  // The merged view of one server at a queried instant.
  struct ServerView {
    bool valid = false;       // at least one unexpired report
    double supply_bps = 0.0;  // staleness-weighted merge
    int active_clients = 0;   // distinct origins with recent active conns
    bool self_active = false; // whether this node is one of them
    int reporting = 0;        // origins contributing to the merge
  };

  FleetAggregator(Simulation* sim, FleetDispatcher* dispatcher, FleetNodeId self, uint64_t seed,
                  const FleetAggregatorConfig& config = {});

  FleetAggregator(const FleetAggregator&) = delete;
  FleetAggregator& operator=(const FleetAggregator&) = delete;

  // Supplies the per-server local reports each announce round broadcasts.
  void set_report_source(ReportSource source) { source_ = std::move(source); }

  // Starts the periodic announce loop at a seeded phase in [0, period).
  void Start();
  // Stops rescheduling after |when| (the rig calls this with the horizon so
  // the drain period is announce-free and the run can quiesce).
  void StopAt(Time when) { stop_at_ = when; }

  // Dispatcher delivery handler; also invoked locally on the node's own
  // reports so the self view is always at least as fresh as any peer's.
  void OnMessage(const FleetMessage& message);

  // One announce round now: a kAnnounce for any newly seen server, then a
  // fresh kEstimate per local report.  Public for tests and examples.
  void AnnounceNow();

  ServerView ViewOf(FleetServerId server, Time now) const;

  // Discovery result: every origin known to talk to |server| (from either
  // message kind), ascending.  Includes self once a local report named it.
  std::vector<FleetNodeId> PeersFor(FleetServerId server) const;

  FleetNodeId self() const { return self_; }
  uint64_t reports_broadcast() const { return reports_broadcast_; }
  // Estimate reports that entered the table (a new origin, or a strictly
  // higher seq), the node's own included.  Only these move ViewOf at a
  // fixed instant.
  uint64_t reports_accepted() const { return reports_accepted_; }

 private:
  void Tick();

  Simulation* sim_;
  FleetDispatcher* dispatcher_;
  FleetNodeId self_;
  FleetAggregatorConfig config_;
  Duration phase_;
  Time stop_at_;
  ReportSource source_;
  uint64_t next_seq_ = 1;
  uint64_t reports_broadcast_ = 0;
  uint64_t reports_accepted_ = 0;
  // Latest report per (server, origin); highest seq wins.
  std::map<FleetServerId, std::map<FleetNodeId, FleetMessage>> reports_;
  // Per-server membership from announces and estimates alike.
  std::map<FleetServerId, std::set<FleetNodeId>> members_;
  std::set<FleetServerId> announced_;
};

}  // namespace odyssey

#endif  // SRC_FLEET_FLEET_AGGREGATOR_H_
