// The per-node fleet stack, shared by the tier_fleet campaign
// (fleet_scenario.cc), the fuzz runner's fleet rig
// (src/check/fuzz_runner.cc) and the fleet_drive example.
//
// A fleet node is a full Odyssey client with its own OracleSet plus a
// FleetAggregator on the fleet's shared bus.  Its strategy is built by
// StrategyRegistry name; a FleetSupplyModel is offered to every factory
// and kept only when the factory takes it, which must happen exactly when
// the built strategy exposes an audit surface.  The
// per-node build order is written once, here: the order in which
// construction schedules events sets the same-timestamp tie order, so the
// goldens and fuzz verdicts depend on it.

#ifndef SRC_FLEET_FLEET_NODE_H_
#define SRC_FLEET_FLEET_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/odyssey_client.h"
#include "src/core/warden.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_dispatcher.h"
#include "src/fleet/fleet_oracle.h"
#include "src/fleet/fleet_supply_model.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/sim/simulation.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {

// Stable service -> server-group mapping.  An explicit "fleet-s<k>" service
// (the campaign's synthetic connections) maps to k % servers; any other
// service hashes with FNV-1a 64 (std::hash is implementation-defined and
// would break cross-platform reproducibility).
FleetServerId ServerGroupOf(const std::string& service, int servers);

// The FuzzScenario for a node's OracleSet when the node replays |waveform|:
// its segments mirror the waveform, so the byte-conservation bound is the
// true capacity integral of that node's link.
FuzzScenario MirrorScenario(const ReplayTrace& waveform, Duration horizon, uint64_t seed);

// The waveform node |node| rides in fleet fuzz scenario |scenario|: node 0
// takes the scenario segments verbatim; other nodes scale each segment's
// bandwidth by a SplitMix64-derived factor in [0.5, 1.5) (radio shadows
// stay at zero, latencies are untouched), so nodes disagree about supply
// and the aggregation protocol has real work to do.
FuzzScenario FleetNodeScenario(const FuzzScenario& scenario, int node);

// One client node.  Declaration order is destruction order in reverse: the
// oracle goes first, then the client (which detaches every endpoint from
// the strategy), and only then the aggregator the strategy's fleet model
// borrows.
struct FleetNode {
  FuzzScenario scenario;  // per-node waveform; referenced by the oracle
  ReplayTrace waveform;
  FaultPlan plan;
  std::unique_ptr<Link> link;
  std::unique_ptr<Modulator> modulator;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<FleetAggregator> aggregator;
  FleetSupplyModel* model = nullptr;  // owned by the strategy; null without an audit surface
  std::unique_ptr<OdysseyClient> client;
  std::unique_ptr<OracleSet> oracle;
};

// The nodes of one fleet rig and what they share: the control-plane bus
// and the fleet-level oracles.
class Fleet {
 public:
  // |strategy| is a StrategyRegistry name; |seed| seeds every node's
  // aggregator; |servers| is the number of server groups.
  Fleet(Simulation* sim, uint64_t seed, std::string strategy, int servers);

  // Builds |node| as the next node: link (starting at |first|), modulator,
  // injector armed with node->plan, aggregator, strategy, client with its
  // fleet hooks, |wardens|, and the OracleSet over node->scenario.  The
  // caller fills scenario, waveform and plan first.
  FleetNode* AddNode(std::unique_ptr<FleetNode> node, const TraceSegment& first,
                     std::vector<std::unique_ptr<Warden>> wardens);

  // Once every node exists: registers each on the bus in ascending id
  // order (broadcast order is id order), binds the fleet oracles to every
  // node's model and aggregator, and arms every node's oracle, node 0's
  // also auditing the shared simulation clock for the whole fleet.
  void Connect();

  // Every node's oracle, then the fleet oracles.
  void SampleOracles();

  // Runs every oracle's final audit (which disarms it).  The
  // convergence oracle arms only when the tail before |horizon| was
  // provably quiet: no fault that can eat a fleet message, and every
  // node's radio live through |end| (a shadow drops control traffic).
  void Finish(Time horizon, Time end);

  const std::vector<std::unique_ptr<FleetNode>>& nodes() const { return nodes_; }
  const FleetDispatcher& dispatcher() const { return dispatcher_; }
  const FleetOracleSet& oracle() const { return *oracle_; }

 private:
  Simulation* const sim_;
  const uint64_t seed_;
  const std::string strategy_;
  const int servers_;
  FleetDispatcher dispatcher_;
  std::vector<std::unique_ptr<FleetNode>> nodes_;
  std::unique_ptr<FleetOracleSet> oracle_;
};

}  // namespace odyssey

#endif  // SRC_FLEET_FLEET_NODE_H_
