// Blind-optimism bandwidth management (§6.2.3).
//
// Models an operating system whose networking layer immediately notifies
// the viceroy when switching between networking technologies: the
// theoretical bandwidth is delivered at each transition with no discovery
// delay, but it does not reflect the impact of other applications — every
// application is told the full link bandwidth is available to it.

#ifndef SRC_STRATEGIES_BLIND_OPTIMISM_H_
#define SRC_STRATEGIES_BLIND_OPTIMISM_H_

#include <vector>

#include "src/core/bandwidth_strategy.h"
#include "src/estimator/connection_estimator.h"
#include "src/net/modulator.h"
#include "src/rpc/observation_log.h"
#include "src/strategies/connection_table.h"

namespace odyssey {

class BlindOptimismStrategy : public BandwidthStrategy, public LogListener {
 public:
  // Registers a transition listener on |modulator|; each trace transition
  // becomes an immediate availability change.
  explicit BlindOptimismStrategy(Modulator* modulator,
                                 const EstimatorConfig& config = {});

  // BandwidthStrategy:
  std::string name() const override { return "blind-optimism"; }
  void AttachConnection(AppId app, Endpoint* endpoint) override;
  void DetachConnection(Endpoint* endpoint) override;
  double AvailabilityFor(AppId app, Time now) const override;
  bool HasEstimate() const override { return informed_; }
  double TotalSupply(Time now) const override;
  Duration SmoothedRttFor(AppId app) const override;

  // LogListener (round trips only; used to answer SmoothedRttFor so that
  // applications can still convert sizes to predicted times):
  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override;
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override;

 private:
  EstimatorConfig config_;
  double theoretical_bps_ = 0.0;
  bool informed_ = false;  // any transition notification received
  ConnectionTable table_{this};
  std::vector<ConnectionEstimator> rtt_estimators_;  // by connection id; valid while attached
};

}  // namespace odyssey

#endif  // SRC_STRATEGIES_BLIND_OPTIMISM_H_
