#include "src/strategies/congestion_manager.h"

#include <algorithm>

namespace odyssey {

std::string CongestionManagerStrategy::ServerKeyOf(const std::string& service) {
  const auto colon = service.find(':');
  return colon == std::string::npos ? service : service.substr(0, colon);
}

void CongestionManagerStrategy::AttachConnection(AppId app, Endpoint* endpoint) {
  CentralizedStrategy::AttachConnection(app, endpoint);
  const std::string server = ServerKeyOf(endpoint->name());
  server_of_[endpoint->id()] = server;
  std::vector<ConnectionId>& flows = flows_[server];
  flows.insert(std::lower_bound(flows.begin(), flows.end(), endpoint->id()), endpoint->id());
}

void CongestionManagerStrategy::DetachConnection(Endpoint* endpoint) {
  const auto it = server_of_.find(endpoint->id());
  if (it != server_of_.end()) {
    const auto flows_it = flows_.find(it->second);
    std::vector<ConnectionId>& flows = flows_it->second;
    flows.erase(std::find(flows.begin(), flows.end(), endpoint->id()));
    if (flows.empty()) {
      flows_.erase(flows_it);
    }
    server_of_.erase(it);
  }
  CentralizedStrategy::DetachConnection(endpoint);
}

double CongestionManagerStrategy::ConnectionAvailability(ConnectionId connection, Time now) const {
  const auto it = server_of_.find(connection);
  if (it == server_of_.end()) {
    // Unknown flow: the model's hypothetical-extra-connection fair share,
    // same as the seed strategy.
    return CentralizedStrategy::ConnectionAvailability(connection, now);
  }
  const std::vector<ConnectionId>& flows = flows_.at(it->second);
  double budget = 0.0;
  for (const ConnectionId flow : flows) {
    budget += CentralizedStrategy::ConnectionAvailability(flow, now);
  }
  return budget / static_cast<double>(flows.size());
}

double CongestionManagerStrategy::AvailabilityFor(AppId app, Time now) const {
  double total = 0.0;
  for (const ConnectionId connection : ConnectionsOf(app)) {
    total += ConnectionAvailability(connection, now);
  }
  return total;
}

ReevalHint CongestionManagerStrategy::TakeReevalHint(Time now) {
  // Redistribution invalidates the idle-level bookkeeping: an idle flow
  // sharing a server with a busy one no longer sits at the pure fair-share
  // level.  Drain the base hint (it clears the dirty set) but degrade it to
  // inexact so the viceroy full-scans.
  ReevalHint hint = CentralizedStrategy::TakeReevalHint(now);
  hint.exact = false;
  hint.idle_levels.clear();
  return hint;
}

std::string CongestionManagerStrategy::ServerOf(ConnectionId connection) const {
  const auto it = server_of_.find(connection);
  return it == server_of_.end() ? std::string() : it->second;
}

std::vector<ConnectionId> CongestionManagerStrategy::FlowsOf(const std::string& server) const {
  const auto it = flows_.find(server);
  return it == flows_.end() ? std::vector<ConnectionId>() : it->second;
}

}  // namespace odyssey
