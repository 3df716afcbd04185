#include "src/check/fuzz_runner.h"

#include <memory>
#include <vector>

#include "src/check/fuzz_driver.h"
#include "src/metrics/experiment.h"
#include "src/net/fault_injector.h"
#include "src/strategies/centralized.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {
namespace {

// Self-rescheduling periodic oracle audit; optionally records the
// availability figures the differential tests compare.
struct Sampler {
  Simulation* sim = nullptr;
  OracleSet* oracle = nullptr;
  // The audit surface, when the installed strategy exposes one; null for
  // isolated-estimate strategies (laissez-faire, blind-optimism).
  CentralizedStrategy* strategy = nullptr;
  // Always set: the strategy actually installed in the viceroy.
  BandwidthStrategy* base = nullptr;
  size_t app_count = 0;
  DifferentialLog* differential = nullptr;
  Time end = 0;
  Duration period = 0;

  void Tick() {
    oracle->Sample();
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
      sim->Schedule(period, [this] { Tick(); });
    }
  }
};

}  // namespace

FuzzRunResult RunFuzzScenario(const FuzzScenario& scenario, const FuzzRunOptions& options) {
  FuzzRunResult result;

  RigSpec spec;
  spec.seed = scenario.seed;
  spec.strategy = scenario.strategy.empty() ? "odyssey" : scenario.strategy;
  if (!scenario.segments.empty()) {
    spec.link = scenario.segments.front();
  }
  spec.reference = options.reference_stack;
  spec.servers = RigServers::kFuzz;
  spec.trace = options.trace;
  ExperimentRig rig(spec);
  Simulation& sim = rig.sim();
  OdysseyClient& client = rig.client();
  FaultInjector injector(&sim, &rig.link());
  client.set_retry_policy(RetryPolicy::Default());
  client.set_fault_injector(&injector);
  injector.Arm(BuildFaultPlan(scenario));

  BandwidthStrategy* strategy_base = &client.viceroy().strategy();
  CentralizedStrategy* strategy_ptr = strategy_base->audit_surface();
  OracleSet oracle(scenario, &sim, &client.viceroy(), strategy_ptr, &rig.link());
  oracle.set_max_audited_connections(options.max_audited_connections);
  client.viceroy().upcalls().set_delivery_observer(
      [&oracle, &result, &options, &sim](AppId app, uint64_t seq, RequestId request,
                                         ResourceId resource, double level, Time posted_at) {
        ++result.upcalls_delivered;
        if (options.differential != nullptr) {
          options.differential->upcalls.push_back(
              UpcallRecord{app, seq, request, resource, level, posted_at, sim.now()});
        }
        oracle.OnUpcallDelivered(app, seq, request, resource, level, posted_at);
#ifdef ODYSSEY_FUZZ_SELFTEST
        if (options.selftest_mutation && seq == 2) {
          // Intentionally seeded defect: the second upcall of every app is
          // observed twice, as if the dispatcher had delivered a duplicate.
          // The upcall-duplicate oracle must catch it and the shrinker must
          // reduce the scenario around it (CI's fuzz-selftest job).
          oracle.OnUpcallDelivered(app, seq, request, resource, level, posted_at);
        }
#else
        (void)options;
#endif
      });
  // The oracle outlives every event (both observers are detached below,
  // before the stack unwinds).
  sim.set_step_observer([&oracle](Time when) { oracle.OnStep(when); });  // ody_lint: owned-capture
  // ody_lint: owned-capture
  sim.set_tie_observer([&oracle](Time when, uint64_t prev_seq, uint64_t seq) {
    oracle.OnTieBreak(when, prev_seq, seq);
  });
#ifdef ODYSSEY_FUZZ_SELFTEST
  if (options.selftest_tiebreak) {
    // Intentionally seeded defect: the queue pops same-timestamp ties
    // newest-first instead of in scheduling order.  The same-time-order
    // oracle must catch it (CI's fuzz-selftest job).
    sim.set_selftest_lifo_ties(true);
  }
#endif

  const Time end = scenario.horizon + options.drain_grace;
  Sampler sampler{&sim,           &oracle, strategy_ptr,         strategy_base,
                  scenario.apps.size(),    options.differential, end,
                  options.oracle_period};
  // The sampler stops rescheduling at |end| and the sim drains before it
  // leaves scope.
  sim.Schedule(options.oracle_period, [&sampler] { sampler.Tick(); });  // ody_lint: owned-capture

  std::vector<std::unique_ptr<FuzzDriver>> drivers;
  drivers.reserve(scenario.apps.size());
  for (size_t i = 0; i < scenario.apps.size(); ++i) {
    drivers.push_back(std::make_unique<FuzzDriver>(&client, &oracle, scenario.apps[i],
                                                   static_cast<int>(i), &result));
    drivers.back()->Start();
  }

  rig.modulator().Replay(ReplayTrace(scenario.segments));
  sim.RunUntil(scenario.horizon);
  for (auto& driver : drivers) {
    driver->Stop();
  }
  sim.RunUntil(end);
  oracle.Finish();

  // Detach the observers before the stack unwinds: the oracle borrows the
  // viceroy and link, and no event may fire past this point anyway.
  client.viceroy().upcalls().set_delivery_observer({});
  sim.set_step_observer({});
  sim.set_tie_observer({});

  result.violations = oracle.violations();
  result.violation_count = oracle.violation_count();
  result.tie_pairs_audited = oracle.tie_pairs_audited();
  result.bytes_delivered = rig.link().bytes_delivered();
  return result;
}

}  // namespace odyssey
