// Executes one fleet-dimension FuzzScenario against N full Odyssey stacks.
//
// RunFleetFuzzScenario is the multi-node sibling of RunFuzzScenario: when a
// scenario carries fleet_nodes >= 2 the rig builds that many client nodes
// through the Fleet builder the tier_fleet campaign uses (fleet_node.h),
// every node running the scenario's strategy (odyssey when unset), sharing
// one set of servers through the fleet estimate aggregation protocol.  The
// scenario's apps are dealt round-robin across the nodes and driven by the
// same FuzzDriver as the single-node runner.
//
// Every node keeps the full single-node oracle set armed against its own
// stack (per-node waveform for byte conservation), and the fleet-level
// oracles (fleet-share-bounds, fleet-convergence) audit the cross-node
// views.  Like the single-node runner, the result is a pure function of
// (scenario, options).
//
// options.reference_stack and options.differential are single-node-only
// concepts and are ignored here.

#ifndef SRC_FLEET_FLEET_FUZZ_H_
#define SRC_FLEET_FLEET_FUZZ_H_

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"

namespace odyssey {

// The waveform node |node| rides in |scenario|: node 0 takes the scenario
// segments verbatim; other nodes scale each segment's bandwidth by a
// SplitMix64-derived factor in [0.5, 1.5) (radio shadows stay at zero,
// latencies are untouched), so nodes disagree about supply and the
// aggregation protocol has real work to do.  Exposed for tests.
FuzzScenario FleetNodeScenario(const FuzzScenario& scenario, int node);

FuzzRunResult RunFleetFuzzScenario(const FuzzScenario& scenario,
                                   const FuzzRunOptions& options = {});

}  // namespace odyssey

#endif  // SRC_FLEET_FLEET_FUZZ_H_
