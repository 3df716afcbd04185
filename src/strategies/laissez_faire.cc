#include "src/strategies/laissez_faire.h"

#include <algorithm>

namespace odyssey {

void LaissezFaireStrategy::AttachConnection(AppId app, Endpoint* endpoint) {
  const ConnectionId id = endpoint->id();
  estimators_.resize(std::max(estimators_.size(), id + 1));
  estimators_[id] = ConnectionEstimator(config_);
  table_.Attach(app, endpoint);
}

void LaissezFaireStrategy::DetachConnection(Endpoint* endpoint) { table_.Detach(endpoint); }

double LaissezFaireStrategy::AvailabilityFor(AppId app, Time now) const {
  (void)now;
  double total = 0.0;
  for (const ConnectionId connection : table_.ConnectionsOf(app)) {
    total += estimators_[connection].bandwidth_bps();
  }
  return total;
}

bool LaissezFaireStrategy::HasEstimate() const {
  for (const ConnectionId connection : table_.attached()) {
    if (estimators_[connection].has_bandwidth()) {
      return true;
    }
  }
  return false;
}

double LaissezFaireStrategy::TotalSupply(Time now) const {
  (void)now;
  // No coordination: there is no meaningful notion of total supply; report
  // the largest single-connection estimate.
  double best = 0.0;
  for (const ConnectionId connection : table_.attached()) {
    best = std::max(best, estimators_[connection].bandwidth_bps());
  }
  return best;
}

Duration LaissezFaireStrategy::SmoothedRttFor(AppId app) const {
  const std::span<const ConnectionId> connections = table_.ConnectionsOf(app);
  return connections.empty() ? 0 : estimators_[connections.front()].smoothed_rtt();
}

void LaissezFaireStrategy::OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) {
  if (table_.IsAttached(connection)) {
    estimators_[connection].OnRoundTrip(obs);
    NotifyChanged();
  }
}

void LaissezFaireStrategy::OnThroughput(ConnectionId connection,
                                        const ThroughputObservation& obs) {
  if (table_.IsAttached(connection)) {
    estimators_[connection].OnThroughput(obs);
    NotifyChanged();
  }
}

}  // namespace odyssey
