#include "src/strategies/congestion_manager.h"

#include <algorithm>

namespace odyssey {

std::string CongestionManagerStrategy::ServerKeyOf(const std::string& service) {
  const auto colon = service.find(':');
  return colon == std::string::npos ? service : service.substr(0, colon);
}

void CongestionManagerStrategy::AttachConnection(AppId app, Endpoint* endpoint) {
  CentralizedStrategy::AttachConnection(app, endpoint);
  const std::string key = ServerKeyOf(endpoint->name());
  auto row = std::find_if(servers_.begin(), servers_.end(),
                          [&key](const Server& server) { return server.key == key; });
  if (row == servers_.end()) {
    row = servers_.insert(row, Server{key, {}, {}});
  }
  const ConnectionId id = endpoint->id();
  if (id >= server_index_.size()) {
    server_index_.resize(id + 1, kNoServer);
  }
  server_index_[id] = static_cast<uint32_t>(row - servers_.begin());
  row->flows.insert(std::lower_bound(row->flows.begin(), row->flows.end(), id), id);
  row->memo.reset();
}

void CongestionManagerStrategy::DetachConnection(Endpoint* endpoint) {
  const ConnectionId id = endpoint->id();
  if (ServerFor(id) != nullptr) {
    Server& server = servers_[server_index_[id]];
    server.flows.erase(std::find(server.flows.begin(), server.flows.end(), id));
    server.memo.reset();
    server_index_[id] = kNoServer;
  }
  CentralizedStrategy::DetachConnection(endpoint);
}

double CongestionManagerStrategy::BudgetOf(const Server& server, Time now) const {
  const uint64_t generation = model()->generation();
  if (server.memo && server.memo->at == now && server.memo->generation == generation) {
    return server.memo->budget;
  }
  double budget = 0.0;
  for (const ConnectionId flow : server.flows) {
    budget += CentralizedStrategy::ConnectionAvailability(flow, now);
  }
  server.memo = Memo{now, generation, budget};
  return budget;
}

double CongestionManagerStrategy::ConnectionAvailability(ConnectionId connection, Time now) const {
  const Server* server = ServerFor(connection);
  if (server == nullptr) {
    // Unknown flow: the model's hypothetical-extra-connection fair share,
    // same as the seed strategy.
    return CentralizedStrategy::ConnectionAvailability(connection, now);
  }
  return BudgetOf(*server, now) / static_cast<double>(server->flows.size());
}

double CongestionManagerStrategy::AvailabilityFor(AppId app, Time now) const {
  double total = 0.0;
  for (const ConnectionId connection : ConnectionsOf(app)) {
    total += ConnectionAvailability(connection, now);
  }
  return total;
}

std::string CongestionManagerStrategy::ServerOf(ConnectionId connection) const {
  const Server* server = ServerFor(connection);
  return server == nullptr ? std::string() : server->key;
}

std::vector<ConnectionId> CongestionManagerStrategy::FlowsOf(const std::string& server) const {
  for (const Server& row : servers_) {
    if (row.key == server) {
      return row.flows;
    }
  }
  return {};
}

}  // namespace odyssey
