#include "src/traced_strategy.h"

#include <algorithm>
#include <utility>

#include "src/rpc/endpoint.h"

namespace odybench {

using odyssey::AppId;
using odyssey::ConnectionId;

TracedStrategy::TracedStrategy(std::unique_ptr<odyssey::BandwidthStrategy> inner, Ledger* ledger)
    : inner_(std::move(inner)),
      inner_listener_(dynamic_cast<odyssey::LogListener*>(inner_.get())),
      ledger_(ledger) {
  inner_->SetChangeCallback([this] {
    Scope scope(ledger_, Layer::kViceroyReeval);
    NotifyChanged();
  });
}

TracedStrategy::~TracedStrategy() {
  for (odyssey::Endpoint* endpoint : subscribed_) {
    endpoint->log().RemoveListener(this);
  }
}

std::string TracedStrategy::name() const { return inner_->name(); }

void TracedStrategy::AttachConnection(AppId app, odyssey::Endpoint* endpoint) {
  Scope scope(ledger_, Layer::kStrategy, app);
  inner_->AttachConnection(app, endpoint);
  if (inner_listener_ != nullptr) {
    endpoint->log().RemoveListener(inner_listener_);
    endpoint->log().AddListener(this);
    subscribed_.push_back(endpoint);
  }
}

void TracedStrategy::DetachConnection(odyssey::Endpoint* endpoint) {
  Scope scope(ledger_, Layer::kStrategy);
  inner_->DetachConnection(endpoint);
  endpoint->log().RemoveListener(this);
  std::erase(subscribed_, endpoint);
}

double TracedStrategy::AvailabilityFor(AppId app, odyssey::Time now) const {
  Scope scope(ledger_, Layer::kStrategy, app);
  return inner_->AvailabilityFor(app, now);
}

bool TracedStrategy::HasEstimate() const {
  Scope scope(ledger_, Layer::kStrategy);
  return inner_->HasEstimate();
}

double TracedStrategy::TotalSupply(odyssey::Time now) const {
  Scope scope(ledger_, Layer::kStrategy);
  return inner_->TotalSupply(now);
}

odyssey::Duration TracedStrategy::SmoothedRttFor(AppId app) const {
  Scope scope(ledger_, Layer::kStrategy, app);
  return inner_->SmoothedRttFor(app);
}

int TracedStrategy::ConnectionCountFor(AppId app) const {
  Scope scope(ledger_, Layer::kStrategy, app);
  return inner_->ConnectionCountFor(app);
}

AppId TracedStrategy::OwnerOf(ConnectionId connection) const {
  Scope scope(ledger_, Layer::kStrategy);
  return inner_->OwnerOf(connection);
}

odyssey::ReevalHint TracedStrategy::TakeReevalHint(odyssey::Time now) {
  Scope scope(ledger_, Layer::kStrategy);
  return inner_->TakeReevalHint(now);
}

odyssey::ArbitrationStrategy* TracedStrategy::arbitration() { return inner_->arbitration(); }

odyssey::CentralizedStrategy* TracedStrategy::audit_surface() { return inner_->audit_surface(); }

void TracedStrategy::OnRoundTrip(ConnectionId connection,
                                 const odyssey::RoundTripObservation& obs) {
  Scope scope(ledger_, Layer::kRpcObserve);
  inner_listener_->OnRoundTrip(connection, obs);
}

void TracedStrategy::OnThroughput(ConnectionId connection,
                                  const odyssey::ThroughputObservation& obs) {
  Scope scope(ledger_, Layer::kRpcObserve);
  inner_listener_->OnThroughput(connection, obs);
}

void TracedStrategy::OnFailure(ConnectionId connection, const odyssey::FailureObservation& obs) {
  Scope scope(ledger_, Layer::kRpcObserve);
  inner_listener_->OnFailure(connection, obs);
}

}  // namespace odybench
