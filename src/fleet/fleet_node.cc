#include "src/fleet/fleet_node.h"

#include <utility>

#include "src/core/contract.h"
#include "src/metrics/experiment.h"
#include "src/sim/random.h"
#include "src/strategies/centralized.h"
#include "src/strategies/strategy_registry.h"

namespace odyssey {
namespace {

// The quiescent tail the convergence oracle demands: longer than the fuzz
// generator's longest outage (kMaxOutage = 3s) plus a couple of announce
// rounds, so every node rebroadcasts at least once after the last fault.
constexpr Duration kConvergenceTail = 4 * kSecond;
// Allowed relative spread between nodes' converged views of one server.
constexpr double kConvergenceTolerance = 0.01;

}  // namespace

FleetServerId ServerGroupOf(const std::string& service, int servers) {
  constexpr char kPrefix[] = "fleet-s";
  if (service.rfind(kPrefix, 0) == 0) {
    return static_cast<FleetServerId>(
        std::stoul(service.substr(sizeof(kPrefix) - 1)) % static_cast<unsigned long>(servers));
  }
  uint64_t h = 1469598103934665603ULL;
  for (const char c : service) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<FleetServerId>(h % static_cast<uint64_t>(servers));
}

FuzzScenario MirrorScenario(const ReplayTrace& waveform, Duration horizon, uint64_t seed) {
  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.horizon = horizon;
  scenario.segments = waveform.segments();
  return scenario;
}

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

Fleet::Fleet(Simulation* sim, uint64_t seed, std::string strategy, int servers)
    : sim_(sim), seed_(seed), strategy_(std::move(strategy)), servers_(servers), dispatcher_(sim) {
  ODY_ASSERT(servers >= 1, "a fleet needs at least one server group");
}

FleetNode* Fleet::AddNode(std::unique_ptr<FleetNode> node, const TraceSegment& first,
                          std::vector<std::unique_ptr<Warden>> wardens) {
  const auto id = static_cast<FleetNodeId>(nodes_.size());
  node->link = std::make_unique<Link>(sim_, first.bandwidth_bps, first.latency);
  node->modulator = std::make_unique<Modulator>(sim_, node->link.get());
  node->injector = std::make_unique<FaultInjector>(sim_, node->link.get());
  node->injector->Arm(node->plan);  // an empty plan schedules and draws nothing
  node->aggregator = std::make_unique<FleetAggregator>(sim_, &dispatcher_, id, seed_);

  StrategyContext context;
  context.sim = sim_;
  context.modulator = node->modulator.get();
  auto model = std::make_unique<FleetSupplyModel>(node->aggregator.get());
  FleetSupplyModel* offered = model.get();
  context.injected_model = std::move(model);
  std::unique_ptr<BandwidthStrategy> strategy =
      StrategyRegistry::Builtin().Create(strategy_, std::move(context));
  CentralizedStrategy* audit = strategy->audit_surface();
  // A factory that takes the offered model moves it out of the context.
  node->model = context.injected_model == nullptr ? offered : nullptr;
  ODY_ASSERT((audit != nullptr) == (node->model != nullptr),
             "a strategy takes the fleet supply model iff it has an audit surface");
  node->client =
      std::make_unique<OdysseyClient>(sim_, node->link.get(), std::move(strategy), kUpcallLatency);

  const int servers = servers_;
  Simulation* sim = sim_;
  if (FleetSupplyModel* model_ptr = node->model; model_ptr != nullptr) {
    node->client->set_connection_observer(
        [model_ptr, servers](Endpoint* endpoint, const std::string& service) {
          model_ptr->MapConnection(endpoint->id(), ServerGroupOf(service, servers));
        });
    node->aggregator->set_report_source(
        [model_ptr, sim] { return model_ptr->LocalReports(sim->now()); });
  } else {
    // Strategies without an audit surface still publish estimates so
    // discovery and convergence cover them: one report per server group,
    // carrying the strategy's whole-link supply.
    BandwidthStrategy* raw = &node->client->viceroy().strategy();
    node->aggregator->set_report_source([raw, servers, sim] {
      std::vector<FleetAggregator::LocalReport> reports;
      if (!raw->HasEstimate()) {
        return reports;
      }
      for (int s = 0; s < servers; ++s) {
        FleetAggregator::LocalReport report;
        report.server = static_cast<FleetServerId>(s);
        report.supply_bps = raw->TotalSupply(sim->now());
        report.active = 1;
        reports.push_back(report);
      }
      return reports;
    });
  }
  for (std::unique_ptr<Warden>& warden : wardens) {
    node->client->InstallWarden(std::move(warden));
  }
  node->client->set_fault_injector(node->injector.get());
  node->oracle = std::make_unique<OracleSet>(node->scenario, sim_, &node->client->viceroy(),
                                             audit, node->link.get());
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

void Fleet::Connect() {
  std::vector<FleetOracleSet::NodeBinding> bindings;
  bindings.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const auto id = static_cast<FleetNodeId>(i);
    FleetAggregator* aggregator = nodes_[i]->aggregator.get();
    dispatcher_.RegisterNode(id, &nodes_[i]->waveform, nodes_[i]->injector.get(),
                             [aggregator](const FleetMessage& message) {  // ody_lint: owned-capture
                               aggregator->OnMessage(message);
                             });
    bindings.push_back(FleetOracleSet::NodeBinding{id, nodes_[i]->model, aggregator});
  }
  oracle_ = std::make_unique<FleetOracleSet>(sim_, std::move(bindings), servers_);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->oracle->Arm(/*clock=*/i == 0);
  }
}

void Fleet::SampleOracles() {
  for (const auto& node : nodes_) {
    node->oracle->Sample();
  }
  oracle_->Sample();
}

void Fleet::Finish(Time horizon, Time end) {
  const Time tail_start = horizon - kConvergenceTail;
  bool quiescent = tail_start > 0;
  for (const auto& node : nodes_) {
    quiescent = quiescent && FaultPlanQuietAfter(node->plan, tail_start) &&
                WaveformLiveThroughout(node->waveform, tail_start, end);
  }
  for (const auto& node : nodes_) {
    node->oracle->Finish();
  }
  oracle_->Finish(quiescent, kConvergenceTolerance);
}

}  // namespace odyssey
