// A SupplyModelInterface that arbitrates against *server* supply.
//
// FleetSupplyModel wraps the incremental local SupplyModel and, for every
// connection mapped to a shared server, clamps the local availability
// figure by the fleet's merged view of that server:
//
//     cap    = merged_supply / (other_active_clients + 1)
//     floor  = local_supply  / (local_active + 1)
//     avail  = max(floor, min(local_avail, cap))
//
// The clamp keeps both local fair-share invariants intact (the result
// never drops below the local floor nor exceeds the local supply), while a
// server crowded by other clients pulls a connection's availability down
// toward its per-client share of the *server's* supply — the per-server
// fair-share formulation the tier_fleet oracles audit.  With no aggregator
// view (cold start, unmapped connection, every peer silent) the model
// degenerates to the local one exactly.

#ifndef SRC_FLEET_FLEET_SUPPLY_MODEL_H_
#define SRC_FLEET_FLEET_SUPPLY_MODEL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/estimator/supply_model.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_message.h"
#include "src/sim/time.h"

namespace odyssey {

class FleetSupplyModel : public SupplyModelInterface {
 public:
  // |aggregator| is borrowed and may be null, in which case the model is
  // exactly the local incremental model.
  explicit FleetSupplyModel(FleetAggregator* aggregator, const SupplyModelConfig& config = {});

  // Binds |connection| to a shared server group; subsequent availability
  // queries for it consult the fleet view.  Rebinding overwrites.
  void MapConnection(ConnectionId connection, FleetServerId server);

  // The per-server cap applied to connections of |server| at |now|: the
  // merged supply split among the other active clients plus this one.
  // Returns a negative value when no valid view exists (tests and oracles
  // treat that as "no clamp").
  double ServerCapFor(FleetServerId server, Time now) const;

  // Local reports for the aggregator's announce rounds: one entry per
  // mapped server, carrying the local supply estimate, the summed usage
  // rate of the server's connections and how many of them are active.
  std::vector<FleetAggregator::LocalReport> LocalReports(Time now) const;

  const FleetAggregator* aggregator() const { return aggregator_; }

  // SupplyModelInterface — everything delegates to the local model except
  // AvailabilityFor's fleet clamp.
  const char* name() const override { return "fleet"; }
  void AddConnection(ConnectionId connection) override { local_.AddConnection(connection); }
  void RemoveConnection(ConnectionId connection) override;
  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override {
    local_.OnRoundTrip(connection, obs);
  }
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override {
    local_.OnThroughput(connection, obs);
  }
  void OnFailure(ConnectionId connection, const FailureObservation& obs) override {
    local_.OnFailure(connection, obs);
  }
  double TotalSupply() const override { return local_.TotalSupply(); }
  bool has_supply() const override { return local_.has_supply(); }
  double AvailabilityFor(ConnectionId connection, Time now) const override;
  int ActiveConnectionCount(Time now) const override { return local_.ActiveConnectionCount(now); }
  const ConnectionEstimator* EstimatorFor(ConnectionId connection) const override {
    return local_.EstimatorFor(connection);
  }
  double UsageRateFor(ConnectionId connection, Time now) const override {
    return local_.UsageRateFor(connection, now);
  }
  void CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const override {
    local_.CollectLiveConnections(now, out);
  }
  // The local model's generation, plus this model's own MapConnection /
  // RemoveConnection changes, plus the reports the aggregator has accepted:
  // those are all that move an AvailabilityFor answer at a fixed instant.
  // Each term only grows, so the sum moves whenever any of them does.
  uint64_t generation() const override {
    return local_.generation() + mapping_changes_ +
           (aggregator_ == nullptr ? 0 : aggregator_->reports_accepted());
  }
  uint64_t scan_ops() const override { return local_.scan_ops(); }

 private:
  SupplyModel local_;
  FleetAggregator* aggregator_;
  std::map<ConnectionId, FleetServerId> server_of_;
  uint64_t mapping_changes_ = 0;
};

}  // namespace odyssey

#endif  // SRC_FLEET_FLEET_SUPPLY_MODEL_H_
