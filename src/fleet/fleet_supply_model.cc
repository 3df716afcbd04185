#include "src/fleet/fleet_supply_model.h"

#include <algorithm>

namespace odyssey {

FleetSupplyModel::FleetSupplyModel(FleetAggregator* aggregator, const SupplyModelConfig& config)
    : local_(config), aggregator_(aggregator) {}

void FleetSupplyModel::MapConnection(ConnectionId connection, FleetServerId server) {
  server_of_[connection] = server;
  ++mapping_changes_;
}

void FleetSupplyModel::RemoveConnection(ConnectionId connection) {
  local_.RemoveConnection(connection);
  server_of_.erase(connection);
  ++mapping_changes_;
}

double FleetSupplyModel::ServerCapFor(FleetServerId server, Time now) const {
  if (aggregator_ == nullptr) {
    return -1.0;
  }
  const FleetAggregator::ServerView view = aggregator_->ViewOf(server, now);
  if (!view.valid) {
    return -1.0;
  }
  // The other active clients plus this one.  When this node is itself one
  // of the counted actives, the denominator is exactly the active count;
  // when it is quiescent (or not yet reporting), it enters as the
  // hypothetical extra client — the same convention the local model uses
  // for unknown connections.
  const int others = view.active_clients - (view.self_active ? 1 : 0);
  return view.supply_bps / static_cast<double>(others + 1);
}

double FleetSupplyModel::AvailabilityFor(ConnectionId connection, Time now) const {
  const double local = local_.AvailabilityFor(connection, now);
  if (aggregator_ == nullptr || !local_.has_supply()) {
    return local;
  }
  const auto it = server_of_.find(connection);
  if (it == server_of_.end()) {
    return local;
  }
  const double cap = ServerCapFor(it->second, now);
  if (cap < 0.0) {
    return local;
  }
  // Clamp by the server share, but never below the local fair-share floor:
  // the local oracles' invariants (floor <= availability <= supply) keep
  // holding bit-for-bit, and a crowded server pulls the figure down toward
  // its per-client share.
  const double floor =
      local_.TotalSupply() / static_cast<double>(local_.ActiveConnectionCount(now) + 1);
  return std::max(floor, std::min(local, cap));
}

std::vector<FleetAggregator::LocalReport> FleetSupplyModel::LocalReports(Time now) const {
  std::vector<FleetAggregator::LocalReport> reports;
  if (!local_.has_supply()) {
    return reports;
  }
  std::map<FleetServerId, FleetAggregator::LocalReport> by_server;
  for (const auto& [connection, server] : server_of_) {
    FleetAggregator::LocalReport& report = by_server[server];
    report.server = server;
    report.supply_bps = local_.TotalSupply();
    const double usage = local_.UsageRateFor(connection, now);
    report.usage_bps += usage;
    if (usage > 0.0) {
      ++report.active;
    }
  }
  reports.reserve(by_server.size());
  for (const auto& entry : by_server) {
    reports.push_back(entry.second);
  }
  return reports;
}

}  // namespace odyssey
