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

// Cadence of the periodic estimator/fair-share/conservation audit.
constexpr Duration kOraclePeriod = 100 * kMillisecond;

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

// Self-rescheduling periodic oracle audit: every node's oracle, then the
// fleet oracles when there is a fleet; optionally records the availability
// figures the differential tests compare.
struct Sampler {
  Simulation* sim = nullptr;
  OracleSet* oracle = nullptr;  // the single node's; unused with a fleet
  Fleet* fleet = nullptr;
  // The audit surface, when the installed strategy exposes one; null for
  // isolated-estimate strategies (laissez-faire, blind-optimism).
  CentralizedStrategy* strategy = nullptr;
  // Always set: the strategy actually installed in the viceroy.
  BandwidthStrategy* base = nullptr;
  size_t app_count = 0;
  DifferentialLog* differential = nullptr;
  Time end = 0;

  void Tick() {
    if (fleet != nullptr) {
      fleet->SampleOracles();
    } else {
      oracle->Sample();
    }
    if (differential != nullptr) {
      const Time now = sim->now();
      differential->samples.push_back(static_cast<double>(now));
      if (strategy != nullptr) {
        differential->samples.push_back(strategy->TotalSupply(now));
        differential->samples.push_back(
            static_cast<double>(strategy->supply_model().ActiveConnectionCount(now)));
        for (const ConnectionId connection : strategy->AttachedConnections()) {
          differential->samples.push_back(strategy->ConnectionAvailability(connection, now));
        }
      } else {
        // No per-connection surface; sample the per-app figures the viceroy
        // itself consults (apps register 1..N in driver order).
        differential->samples.push_back(base->TotalSupply(now));
        differential->samples.push_back(base->HasEstimate() ? 1.0 : 0.0);
        for (size_t i = 1; i <= app_count; ++i) {
          differential->samples.push_back(base->AvailabilityFor(static_cast<AppId>(i), now));
        }
      }
    }
    if (sim->now() < end) {
      sim->Schedule(kOraclePeriod, [this] { Tick(); });
    }
  }
};

// The run loop both rigs share: arms the observers, drives the scenario's
// apps (dealt round-robin across |nodes|) to the horizon, drains, runs the
// final audits and sums the result.  |fleet| is null on the single-node
// rig; with a fleet, the differential log stays empty.
FuzzRunResult RunNodes(const FuzzScenario& scenario, const FuzzRunOptions& options,
                       Simulation* sim, const std::vector<RunNode>& nodes, Fleet* fleet) {
  FuzzRunResult result;
  DifferentialLog* differential = fleet == nullptr ? options.differential : nullptr;
  for (size_t i = 0; i < nodes.size(); ++i) {
    OracleSet* oracle = nodes[i].oracle;
    const bool mutate = options.selftest_mutation && i == 0;
    nodes[i].client->viceroy().upcalls().set_delivery_observer(
        [oracle, &result, differential, sim, mutate](AppId app, uint64_t seq, RequestId request,
                                                     ResourceId resource, double level,
                                                     Time posted_at) {
          ++result.upcalls_delivered;
          if (differential != nullptr) {
            differential->upcalls.push_back(
                UpcallRecord{app, seq, request, resource, level, posted_at, sim->now()});
          }
          oracle->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
#ifdef ODYSSEY_FUZZ_SELFTEST
          if (mutate && seq == 2) {
            // Intentionally seeded defect: node 0's second upcall of every
            // app is observed twice, as if the dispatcher had delivered a
            // duplicate.  The upcall-duplicate oracle must catch it and the
            // shrinker must reduce the scenario around it (CI's
            // fuzz-selftest job).
            oracle->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
          }
#else
          (void)mutate;
#endif
        });
  }
  // Node 0's oracle audits the simulation-global clock for every node
  // (Fleet::Connect installs the same pair).  The oracle outlives every
  // event (the observers are detached below, before the stack unwinds).
  OracleSet* lead = nodes.front().oracle;
  sim->set_step_observer([lead](Time when) { lead->OnStep(when); });  // ody_lint: owned-capture
  // ody_lint: owned-capture
  sim->set_tie_observer([lead](Time when, uint64_t prev_seq, uint64_t seq) {
    lead->OnTieBreak(when, prev_seq, seq);
  });
#ifdef ODYSSEY_FUZZ_SELFTEST
  if (options.selftest_tiebreak) {
    // Intentionally seeded defect: the queue pops same-timestamp ties
    // newest-first instead of in scheduling order.  The same-time-order
    // oracle must catch it (CI's fuzz-selftest job).
    sim->set_selftest_lifo_ties(true);
  }
#endif

  const Time end = scenario.horizon + options.drain_grace;
  BandwidthStrategy* base = &nodes.front().client->viceroy().strategy();
  Sampler sampler{sim,  lead, fleet, base->audit_surface(), base, scenario.apps.size(),
                  differential, end};
  // The sampler stops rescheduling at |end| and the sim drains before it
  // leaves scope.
  sim->Schedule(kOraclePeriod, [&sampler] { sampler.Tick(); });  // ody_lint: owned-capture

  std::vector<std::unique_ptr<FuzzDriver>> drivers;
  drivers.reserve(scenario.apps.size());
  for (size_t i = 0; i < scenario.apps.size(); ++i) {
    const RunNode& node = nodes[i % nodes.size()];
    drivers.push_back(std::make_unique<FuzzDriver>(node.client, node.oracle, scenario.apps[i],
                                                   static_cast<int>(i), &result));
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

  // Detach the observers before the stack unwinds: the oracles borrow the
  // viceroys and links, and no event may fire past this point anyway.
  for (const RunNode& node : nodes) {
    node.client->viceroy().upcalls().set_delivery_observer({});
  }
  sim->set_step_observer({});
  sim->set_tie_observer({});
  if (fleet != nullptr) {
    fleet->Finish(scenario.horizon, end);  // every node's oracle, then the fleet oracles
  } else {
    lead->Finish();
  }

  for (const RunNode& node : nodes) {
    const std::vector<FuzzViolation>& found = node.oracle->violations();
    result.violations.insert(result.violations.end(), found.begin(), found.end());
    result.violation_count += node.oracle->violation_count();
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
    fleet.Connect();
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
  const ReplayTrace waveform(scenario.segments);
  return RunNodes(scenario, options, &rig.sim(),
                  {RunNode{&client, &oracle, &rig.link(), &rig.modulator(), &waveform}}, nullptr);
}

}  // namespace odyssey
