// Laissez-faire bandwidth management (§6.2.3).
//
// Each endpoint's log is examined in isolation, reflecting what applications
// would discover on their own: a connection's availability estimate is its
// own smoothed observed bandwidth.  Under intermittent contention this
// systematically over-estimates availability — each burst is observed at
// close to full link rate whenever competitors happen to be idle — which is
// precisely the pathology Figure 14 demonstrates.

#ifndef SRC_STRATEGIES_LAISSEZ_FAIRE_H_
#define SRC_STRATEGIES_LAISSEZ_FAIRE_H_

#include <vector>

#include "src/core/bandwidth_strategy.h"
#include "src/estimator/connection_estimator.h"
#include "src/rpc/observation_log.h"
#include "src/strategies/connection_table.h"

namespace odyssey {

class LaissezFaireStrategy : public BandwidthStrategy, public LogListener {
 public:
  explicit LaissezFaireStrategy(const EstimatorConfig& config = {}) : config_(config) {}

  // BandwidthStrategy:
  std::string name() const override { return "laissez-faire"; }
  void AttachConnection(AppId app, Endpoint* endpoint) override;
  void DetachConnection(Endpoint* endpoint) override;
  double AvailabilityFor(AppId app, Time now) const override;
  bool HasEstimate() const override;
  double TotalSupply(Time now) const override;
  Duration SmoothedRttFor(AppId app) const override;

  // LogListener:
  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override;
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override;

 private:
  EstimatorConfig config_;
  ConnectionTable table_{this};
  std::vector<ConnectionEstimator> estimators_;  // by connection id; valid while attached
};

}  // namespace odyssey

#endif  // SRC_STRATEGIES_LAISSEZ_FAIRE_H_
