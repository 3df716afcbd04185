#include "src/fleet/fleet_fuzz.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/fuzz_driver.h"
#include "src/core/contract.h"
#include "src/fleet/fleet_node.h"
#include "src/metrics/experiment.h"
#include "src/sim/random.h"

namespace odyssey {

FuzzScenario FleetNodeScenario(const FuzzScenario& scenario, int node) {
  FuzzScenario out = scenario;
  if (node == 0) {
    return out;
  }
  SplitMix64 mix(scenario.seed ^ (0x666c656574ULL + static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  const double factor = 0.5 + static_cast<double>(mix.Next() >> 11) * 0x1.0p-53;
  for (TraceSegment& segment : out.segments) {
    if (segment.bandwidth_bps > 0.0) {
      segment.bandwidth_bps *= factor;
    }
  }
  return out;
}

FuzzRunResult RunFleetFuzzScenario(const FuzzScenario& scenario, const FuzzRunOptions& options) {
  ODY_ASSERT(scenario.fleet_nodes >= 2, "fleet runner needs a fleet-dimension scenario");
  FuzzRunResult result;

  Simulation sim(scenario.seed);
  sim.set_trace(options.trace);

  // One shared set of servers, exactly the single-node runner's.
  FuzzServers servers(&sim);

  // The node's strategy comes from the registry (the scenario's strategy
  // dimension).
  Fleet fleet(&sim, scenario.seed, scenario.strategy.empty() ? "odyssey" : scenario.strategy,
              scenario.fleet_servers);
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
    built->oracle->set_max_audited_connections(options.max_audited_connections);
  }
  fleet.Connect();

  for (size_t i = 0; i < fleet.nodes().size(); ++i) {
    OracleSet* oracle = fleet.nodes()[i]->oracle.get();
    const bool mutate = options.selftest_mutation && i == 0;
    fleet.nodes()[i]->client->viceroy().upcalls().set_delivery_observer(
        [oracle, &result, mutate](AppId app, uint64_t seq, RequestId request, ResourceId resource,
                                  double level, Time posted_at) {
          ++result.upcalls_delivered;
          oracle->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
#ifdef ODYSSEY_FUZZ_SELFTEST
          if (mutate && seq == 2) {
            // Same seeded defect as the single-node runner: node 0's second
            // upcall per app is observed twice (CI's fuzz-selftest job).
            oracle->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
          }
#else
          (void)mutate;
#endif
        });
  }
#ifdef ODYSSEY_FUZZ_SELFTEST
  if (options.selftest_tiebreak) {
    sim.set_selftest_lifo_ties(true);
  }
#endif

  const Time end = scenario.horizon + options.drain_grace;
  struct Sampler {
    Simulation* sim;
    Fleet* fleet;
    Time end;
    Duration period;
    void Tick() {
      fleet->SampleOracles();
      if (sim->now() < end) {
        sim->Schedule(period, [this] { Tick(); });
      }
    }
  };
  Sampler sampler{&sim, &fleet, end, options.oracle_period};
  // The sampler stops rescheduling at |end| and the sim drains before it
  // leaves scope.
  sim.Schedule(options.oracle_period, [&sampler] { sampler.Tick(); });  // ody_lint: owned-capture

  // Apps are dealt round-robin across the nodes, each driven by the shared
  // FuzzDriver against its node's client and oracle.
  std::vector<std::unique_ptr<FuzzDriver>> drivers;
  drivers.reserve(scenario.apps.size());
  for (size_t i = 0; i < scenario.apps.size(); ++i) {
    FleetNode* node = fleet.nodes()[i % fleet.nodes().size()].get();
    drivers.push_back(std::make_unique<FuzzDriver>(node->client.get(), node->oracle.get(),
                                                   scenario.apps[i], static_cast<int>(i), &result));
    drivers.back()->Start();
  }

  for (const auto& node : fleet.nodes()) {
    node->modulator->Replay(node->waveform);
    node->aggregator->StopAt(scenario.horizon);
    node->aggregator->Start();
  }

  sim.RunUntil(scenario.horizon);
  for (auto& driver : drivers) {
    driver->Stop();
  }
  sim.RunUntil(end);
  // Finish also detaches the observers before the stack unwinds: the
  // oracles borrow the viceroys and links.
  fleet.Finish(scenario.horizon, end);

  for (const auto& node : fleet.nodes()) {
    for (const FuzzViolation& violation : node->oracle->violations()) {
      result.violations.push_back(violation);
    }
    result.violation_count += node->oracle->violation_count();
    result.bytes_delivered += node->link->bytes_delivered();
  }
  for (const FuzzViolation& violation : fleet.oracle().violations()) {
    result.violations.push_back(violation);
  }
  result.violation_count += fleet.oracle().violation_count();
  result.tie_pairs_audited = fleet.nodes().front()->oracle->tie_pairs_audited();
  return result;
}

}  // namespace odyssey
