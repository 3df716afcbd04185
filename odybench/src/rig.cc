#include "src/rig.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/core/resource.h"
#include "src/strategies/centralized.h"
#include "src/traced_strategy.h"

namespace odybench {

using odyssey::AppId;
using odyssey::RequestId;
using odyssey::ResourceId;
using odyssey::Time;

std::unique_ptr<odyssey::BandwidthStrategy> MakeStrategy(odyssey::Simulation* sim,
                                                          Ledger* ledger) {
  auto strategy = std::make_unique<odyssey::CentralizedStrategy>(sim);
  if (ledger == nullptr) {
    return strategy;
  }
  return std::make_unique<TracedStrategy>(std::move(strategy), ledger);
}

OracleHooks::OracleHooks(odyssey::Simulation* sim, odyssey::UpcallDispatcher* upcalls,
                         odyssey::OracleSet* oracle, Ledger* ledger)
    : sim_(sim), upcalls_(upcalls) {
  upcalls_->set_delivery_observer([this, oracle, ledger](AppId app, uint64_t seq,
                                                         RequestId request, ResourceId resource,
                                                         double level, Time posted_at) {
    digest_.Add(app);
    digest_.Add(seq);
    digest_.Add(level);
    digest_.Add(sim_->now());
    queued_max_ = std::max<uint64_t>(queued_max_, upcalls_->queued_count());
    Scope scope(ledger, Layer::kCheckOracle, app);
    oracle->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
  });
  sim_->set_step_observer([oracle, ledger](Time when) {
    Scope scope(ledger, Layer::kCheckOracle);
    oracle->OnStep(when);
  });
  sim_->set_tie_observer([oracle, ledger](Time when, uint64_t prev_seq, uint64_t seq) {
    Scope scope(ledger, Layer::kCheckOracle);
    oracle->OnTieBreak(when, prev_seq, seq);
  });
}

OracleHooks::~OracleHooks() {
  upcalls_->set_delivery_observer({});
  sim_->set_step_observer({});
  sim_->set_tie_observer({});
}

RequestId& WindowLoop::current(AppId app) {
  if (current_.size() <= app) {
    current_.resize(app + 1, 0);
  }
  return current_[app];
}

void WindowLoop::Start(AppId app) {
  Register(app, viceroy_->CurrentLevel(app, ResourceId::kNetworkBandwidth));
}

bool WindowLoop::Register(AppId app, double level) {
  ++attempted_;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    odyssey::ResourceDescriptor descriptor;
    descriptor.resource = ResourceId::kNetworkBandwidth;
    descriptor.lower = level * 0.7;
    descriptor.upper = std::max(level * 1.3, descriptor.lower + 1.0);
    descriptor.handler = [this, app](RequestId, ResourceId resource, double new_level) {
      Scope scope(ledger_, Layer::kAppHandler, app);
      if (resource != ResourceId::kNetworkBandwidth) {
        return;
      }
      current(app) = 0;  // the delivered upcall consumed the registration
      if (!stopped_ && Register(app, new_level)) {
        ++cycles_;
      }
    };
    odyssey::RequestResult result;
    {
      Scope scope(ledger_, Layer::kViceroyRequest, app);
      ++requests_;
      result = viceroy_->Request(app, descriptor);
    }
    if (result.ok()) {
      ++registrations_;
      current(app) = result.id;
      Scope scope(ledger_, Layer::kCheckOracle, app);
      oracle_->OnWindowRegistered(app, result.id, descriptor.lower, descriptor.upper);
      return true;
    }
    level = result.current_level;
  }
  ++exhausted_;
  return false;
}

void WindowLoop::Recycle(AppId app) {
  const RequestId cancelled = current(app);
  if (cancelled == 0) {
    return;
  }
  odyssey::Status status;
  {
    Scope scope(ledger_, Layer::kViceroyCancel, app);
    ++cancels_;
    status = viceroy_->Cancel(cancelled);
  }
  if (!status.ok()) {
    ++cancels_lost_;
    return;
  }
  {
    Scope scope(ledger_, Layer::kCheckOracle, app);
    oracle_->OnWindowCancelled(cancelled);
  }
  current(app) = 0;
  Start(app);
}

void Drive(odyssey::Simulation* sim, const odyssey::Link& link, Time until,
           odyssey::Duration step, Ledger* ledger, StepSamples* steps) {
  while (sim->now() < until) {
    const auto start = std::chrono::steady_clock::now();
    {
      Scope scope(ledger, Layer::kSim);
      sim->RunUntil(std::min(sim->now() + step, until));
    }
    const size_t active = link.active_flow_count();
    steps->flow_sum += static_cast<double>(active);
    steps->flow_max = std::max<uint64_t>(steps->flow_max, active);
    steps->host_s.push_back(SecondsSince(start));
  }
}

LayerCounts ReadCounts(const odyssey::Simulation& sim, const odyssey::Link& link,
                       odyssey::Viceroy* viceroy, const WindowLoop& loop,
                       const odyssey::OracleSet& oracle, const OracleHooks& hooks,
                       const StepSamples& steps) {
  const odyssey::UpcallDispatcher& upcalls = viceroy->upcalls();
  LayerCounts counts;
  counts.sim_events = sim.events_processed();
  counts.net_bytes = link.bytes_delivered();
  counts.flows_mean =
      steps.host_s.empty() ? 0.0 : steps.flow_sum / static_cast<double>(steps.host_s.size());
  counts.flows_max = steps.flow_max;
  counts.upcalls_delivered = upcalls.delivered_count();
  counts.upcalls_queued_max = hooks.queued_max();
  counts.upcall_latency_ms_mean = upcalls.latency_mean_us() / 1000.0;
  counts.scan_ops = viceroy->strategy().audit_surface()->supply_model().scan_ops();
  counts.requests = loop.requests();
  counts.registrations = loop.registrations();
  counts.cancels = loop.cancels();
  counts.cancels_lost = loop.cancels_lost();
  counts.violations = oracle.violation_count();
  return counts;
}

LayerCounts Subtract(const LayerCounts& end, const LayerCounts& start) {
  LayerCounts counts = end;
  counts.sim_events -= start.sim_events;
  counts.net_bytes -= start.net_bytes;
  counts.upcalls_delivered -= start.upcalls_delivered;
  counts.scan_ops -= start.scan_ops;
  counts.requests -= start.requests;
  counts.registrations -= start.registrations;
  counts.cancels -= start.cancels;
  counts.cancels_lost -= start.cancels_lost;
  counts.violations -= start.violations;
  return counts;
}

uint64_t RigDigest(const OracleHooks& hooks, const LayerCounts& lifetime, uint64_t cycles) {
  Digest digest;
  digest.Add(hooks.digest());
  digest.Add(lifetime.net_bytes);
  digest.Add(lifetime.sim_events);
  digest.Add(lifetime.upcalls_delivered);
  digest.Add(lifetime.scan_ops);
  digest.Add(lifetime.requests);
  digest.Add(lifetime.registrations);
  digest.Add(lifetime.cancels);
  digest.Add(lifetime.violations);
  digest.Add(cycles);
  return digest.value();
}

}  // namespace odybench
