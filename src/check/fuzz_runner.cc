#include "src/check/fuzz_runner.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/fuzz_driver.h"
#include "src/fleet/fleet_node.h"
#include "src/metrics/experiment.h"
#include "src/net/fault_injector.h"
#include "src/sim/random.h"
#include "src/strategies/centralized.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {
namespace {

// One client stack the run loop drives, borrowed from the rig that built
// it.
struct RunNode {
  OdysseyClient* client = nullptr;
  OracleSet* oracle = nullptr;
  Link* link = nullptr;
  Modulator* modulator = nullptr;
  const ReplayTrace* waveform = nullptr;
  FleetAggregator* aggregator = nullptr;  // null on the single-node rig
};

// Appends one availability sample to |log|: now, the total supply, then
// the per-connection figures when |strategy| exposes an audit surface, or
// else the per-app figures the viceroy itself consults (apps register 1..N
// in scenario order).
void RecordSample(DifferentialLog* log, Simulation* sim, BandwidthStrategy* strategy,
                  const OracleSet& oracle, size_t app_count) {
  const Time now = sim->now();
  log->samples.push_back(static_cast<double>(now));
  if (CentralizedStrategy* audit = strategy->audit_surface(); audit != nullptr) {
    log->samples.push_back(audit->TotalSupply(now));
    log->samples.push_back(
        static_cast<double>(audit->supply_model().ActiveConnectionCount(now)));
    // The oracle audits this strategy: when it has just asked for every
    // attached connection's availability, the log takes those values.
    if (const std::vector<double>* audited = oracle.AuditedAvailabilities(now);
        audited != nullptr) {
      log->samples.insert(log->samples.end(), audited->begin(), audited->end());
      return;
    }
    for (const ConnectionId connection : audit->AttachedConnections()) {
      log->samples.push_back(audit->ConnectionAvailability(connection, now));
    }
    return;
  }
  log->samples.push_back(strategy->TotalSupply(now));
  log->samples.push_back(strategy->HasEstimate() ? 1.0 : 0.0);
  for (size_t i = 1; i <= app_count; ++i) {
    log->samples.push_back(strategy->AvailabilityFor(static_cast<AppId>(i), now));
  }
}

// The run loop both rigs share, over stacks whose oracles are already
// armed: drives the scenario's apps (dealt round-robin across |nodes|) to
// the horizon, drains, runs the final audits and sums the result.  |fleet|
// is null on the single-node rig; with a fleet, the differential log stays
// empty.
FuzzRunResult RunNodes(const FuzzScenario& scenario, const FuzzRunOptions& options,
                       Simulation* sim, const std::vector<RunNode>& nodes, Fleet* fleet) {
  FuzzRunResult result;
  OracleSet* lead = nodes.front().oracle;
#ifdef ODYSSEY_FUZZ_SELFTEST
  // The seeded defects (CI's fuzz-selftest job): node 0's dispatcher
  // reports a duplicate delivery, and the queue pops same-timestamp ties
  // newest-first.
  nodes.front().client->viceroy().upcalls().set_selftest_duplicate(options.selftest_mutation);
  sim->set_selftest_lifo_ties(options.selftest_tiebreak);
#endif

  const Time end = scenario.horizon + kDrainGrace;
  DifferentialLog* differential = fleet == nullptr ? options.differential : nullptr;
  BandwidthStrategy* strategy = &nodes.front().client->viceroy().strategy();
  const size_t app_count = scenario.apps.size();
  ScheduleAudits(sim, end,
                 [sim, lead, fleet, differential, strategy, app_count] {
                   if (fleet != nullptr) {
                     fleet->SampleOracles();
                   } else {
                     lead->Sample();
                   }
                   if (differential != nullptr) {
                     RecordSample(differential, sim, strategy, *lead, app_count);
                   }
                 });

  std::vector<std::unique_ptr<FuzzDriver>> drivers;
  drivers.reserve(scenario.apps.size());
  for (size_t i = 0; i < scenario.apps.size(); ++i) {
    const RunNode& node = nodes[i % nodes.size()];
    drivers.push_back(
        std::make_unique<FuzzDriver>(node.client, scenario.apps[i], static_cast<int>(i), &result));
    drivers.back()->Start();
  }

  for (const RunNode& node : nodes) {
    node.modulator->Replay(*node.waveform);
    if (node.aggregator != nullptr) {
      node.aggregator->StopAt(scenario.horizon);
      node.aggregator->Start();
    }
  }

  sim->RunUntil(scenario.horizon);
  for (auto& driver : drivers) {
    driver->Stop();
  }
  sim->RunUntil(end);

  if (fleet != nullptr) {
    fleet->Finish(scenario.horizon, end);  // every node's oracle, then the fleet oracles
  } else {
    lead->Finish();
  }

  for (const RunNode& node : nodes) {
    const std::vector<FuzzViolation>& found = node.oracle->violations();
    result.violations.insert(result.violations.end(), found.begin(), found.end());
    result.violation_count += node.oracle->violation_count();
    result.upcalls_delivered += node.client->viceroy().upcalls().delivered_count();
    result.bytes_delivered += node.link->bytes_delivered();
  }
  if (fleet != nullptr) {
    const std::vector<FuzzViolation>& found = fleet->oracle().violations();
    result.violations.insert(result.violations.end(), found.begin(), found.end());
    result.violation_count += fleet->oracle().violation_count();
  }
  result.tie_pairs_audited = lead->tie_pairs_audited();
  return result;
}

}  // namespace

FuzzRunResult RunFuzzScenario(const FuzzScenario& scenario, const FuzzRunOptions& options) {
  const std::string strategy = scenario.strategy.empty() ? "odyssey" : scenario.strategy;
  if (scenario.fleet_nodes >= 2) {
    Simulation sim(scenario.seed);
    sim.set_trace(options.trace);
    // One shared set of servers, exactly the single-node rig's.
    FuzzServers servers(&sim);
    Fleet fleet(&sim, scenario.seed, strategy, scenario.fleet_servers);
    for (int i = 0; i < scenario.fleet_nodes; ++i) {
      auto node = std::make_unique<FleetNode>();
      node->scenario = FleetNodeScenario(scenario, i);
      node->waveform = ReplayTrace(node->scenario.segments);
      // Each node's injector stream is decoupled from its siblings': same
      // fault schedule, independent probabilistic draws.
      node->plan = BuildFaultPlan(scenario);
      node->plan.WithSeed(SplitMix64(node->plan.seed ^ static_cast<uint64_t>(i)).Next());
      const TraceSegment first =
          node->scenario.segments.empty() ? RigSpec{}.link : node->scenario.segments.front();
      FleetNode* built = fleet.AddNode(std::move(node), first, servers.Wardens());
      built->client->set_retry_policy(RetryPolicy::Default());
    }
    fleet.Connect();  // arms every node's oracle
    std::vector<RunNode> nodes;
    for (const auto& node : fleet.nodes()) {
      nodes.push_back(RunNode{node->client.get(), node->oracle.get(), node->link.get(),
                              node->modulator.get(), &node->waveform, node->aggregator.get()});
    }
    return RunNodes(scenario, options, &sim, nodes, &fleet);
  }

  RigSpec spec;
  spec.seed = scenario.seed;
  spec.strategy = strategy;
  if (!scenario.segments.empty()) {
    spec.link = scenario.segments.front();
  }
  spec.reference = options.reference_stack;
  spec.servers = RigServers::kFuzz;
  spec.trace = options.trace;
  ExperimentRig rig(spec);
  OdysseyClient& client = rig.client();
  FaultInjector injector(&rig.sim(), &rig.link());
  client.set_retry_policy(RetryPolicy::Default());
  client.set_fault_injector(&injector);
  injector.Arm(BuildFaultPlan(scenario));
  OracleSet oracle(scenario, &rig.sim(), &client.viceroy(),
                   client.viceroy().strategy().audit_surface(), &rig.link());
  OracleSet::DeliveryTap record;
  if (DifferentialLog* log = options.differential; log != nullptr) {
    Simulation* sim = &rig.sim();
    record = [log, sim](AppId app, uint64_t seq, RequestId request, ResourceId resource,
                        double level, Time posted_at) {
      log->upcalls.push_back(
          UpcallRecord{app, seq, request, resource, level, posted_at, sim->now()});
    };
  }
  oracle.Arm(/*clock=*/true, std::move(record));
  const ReplayTrace waveform(scenario.segments);
  return RunNodes(scenario, options, &rig.sim(),
                  {RunNode{&client, &oracle, &rig.link(), &rig.modulator(), &waveform}}, nullptr);
}

}  // namespace odyssey
