#include "src/strategies/blind_optimism.h"

#include <algorithm>

namespace odyssey {

BlindOptimismStrategy::BlindOptimismStrategy(Modulator* modulator, const EstimatorConfig& config)
    : config_(config) {
  modulator->AddTransitionListener([this](const TraceSegment& segment) {
    theoretical_bps_ = segment.bandwidth_bps;
    informed_ = true;
    NotifyChanged();
  });
}

void BlindOptimismStrategy::AttachConnection(AppId app, Endpoint* endpoint) {
  const ConnectionId id = endpoint->id();
  rtt_estimators_.resize(std::max(rtt_estimators_.size(), id + 1));
  rtt_estimators_[id] = ConnectionEstimator(config_);
  table_.Attach(app, endpoint);
}

void BlindOptimismStrategy::DetachConnection(Endpoint* endpoint) { table_.Detach(endpoint); }

double BlindOptimismStrategy::AvailabilityFor(AppId app, Time now) const {
  (void)app;
  (void)now;
  return theoretical_bps_;
}

double BlindOptimismStrategy::TotalSupply(Time now) const {
  (void)now;
  return theoretical_bps_;
}

Duration BlindOptimismStrategy::SmoothedRttFor(AppId app) const {
  const std::span<const ConnectionId> connections = table_.ConnectionsOf(app);
  return connections.empty() ? 0 : rtt_estimators_[connections.front()].smoothed_rtt();
}

void BlindOptimismStrategy::OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) {
  if (table_.IsAttached(connection)) {
    rtt_estimators_[connection].OnRoundTrip(obs);
  }
}

void BlindOptimismStrategy::OnThroughput(ConnectionId connection,
                                         const ThroughputObservation& obs) {
  (void)connection;
  (void)obs;  // blind optimism ignores measured throughput entirely
}

}  // namespace odyssey
