#include "src/fleet/fleet_aggregator.h"

#include <cmath>
#include <limits>
#include <utility>

#include "src/sim/random.h"

namespace odyssey {

FleetAggregator::FleetAggregator(Simulation* sim, FleetDispatcher* dispatcher, FleetNodeId self,
                                 uint64_t seed, const FleetAggregatorConfig& config)
    : sim_(sim),
      dispatcher_(dispatcher),
      self_(self),
      config_(config),
      stop_at_(std::numeric_limits<Time>::max()) {
  // Per-node phase offset, derived (not drawn) so it is independent of both
  // the simulation stream and every other node's phase.
  SplitMix64 mix(seed ^ (0x666c656574ULL + static_cast<uint64_t>(self) * 0x9e3779b97f4a7c15ULL));
  const auto period = static_cast<uint64_t>(config_.announce_period);
  phase_ = period == 0 ? 0 : static_cast<Duration>(mix.Next() % period);
}

void FleetAggregator::Start() {
  sim_->Post(phase_, [this] { Tick(); });
}

void FleetAggregator::Tick() {
  if (sim_->now() >= stop_at_) {
    return;
  }
  AnnounceNow();
  sim_->Post(config_.announce_period, [this] { Tick(); });
}

void FleetAggregator::AnnounceNow() {
  if (!source_) {
    return;
  }
  for (const LocalReport& report : source_()) {
    if (announced_.insert(report.server).second) {
      // First sight of this server: a discovery announce so peers learn the
      // membership even before they care about the estimate.
      FleetMessage hello;
      hello.kind = FleetMessageKind::kAnnounce;
      hello.origin = self_;
      hello.server = report.server;
      hello.seq = next_seq_++;
      hello.sent_at = sim_->now();
      OnMessage(hello);
      dispatcher_->Broadcast(self_, hello);
    }
    FleetMessage message;
    message.kind = FleetMessageKind::kEstimate;
    message.origin = self_;
    message.server = report.server;
    message.seq = next_seq_++;
    message.sent_at = sim_->now();
    message.supply_bps = report.supply_bps;
    message.usage_bps = report.usage_bps;
    message.active = report.active;
    // Self-delivery first: the node's own view is never staler than what it
    // just broadcast, even if every peer link is down.
    OnMessage(message);
    dispatcher_->Broadcast(self_, message);
    ++reports_broadcast_;
  }
}

void FleetAggregator::OnMessage(const FleetMessage& message) {
  members_[message.server].insert(message.origin);
  if (message.kind != FleetMessageKind::kEstimate) {
    return;
  }
  std::map<FleetNodeId, FleetMessage>& slot = reports_[message.server];
  const auto it = slot.find(message.origin);
  // Strictly-higher-seq wins: duplicated or reordered deliveries of older
  // reports cannot move the table, which is what keeps the merge a pure
  // function of the delivered set.
  if (it == slot.end() || message.seq > it->second.seq) {
    slot[message.origin] = message;
    ++reports_accepted_;
  }
}

FleetAggregator::ServerView FleetAggregator::ViewOf(FleetServerId server, Time now) const {
  ServerView view;
  const auto it = reports_.find(server);
  if (it == reports_.end()) {
    return view;
  }
  double weight_sum = 0.0;
  double supply_sum = 0.0;
  // Ascending origin id: with IEEE addition the sum depends on operand
  // order, so a fixed iteration order is part of the determinism contract.
  for (const auto& [origin, report] : it->second) {
    const Duration age = now - report.sent_at;
    if (age < 0 || age > config_.stale_after) {
      continue;
    }
    const double weight =
        std::exp2(-DurationToSeconds(age) / DurationToSeconds(config_.staleness_tau));
    weight_sum += weight;
    supply_sum += weight * report.supply_bps;
    ++view.reporting;
    if (report.active > 0 && age <= config_.activity_window) {
      ++view.active_clients;
      if (origin == self_) {
        view.self_active = true;
      }
    }
  }
  if (weight_sum > 0.0) {
    view.valid = true;
    view.supply_bps = supply_sum / weight_sum;
  }
  return view;
}

std::vector<FleetNodeId> FleetAggregator::PeersFor(FleetServerId server) const {
  std::vector<FleetNodeId> peers;
  const auto it = members_.find(server);
  if (it != members_.end()) {
    peers.assign(it->second.begin(), it->second.end());
  }
  return peers;
}

}  // namespace odyssey
