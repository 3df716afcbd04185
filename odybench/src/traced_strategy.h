// A transparent BandwidthStrategy decorator that times the estimator and
// strategy layer from outside.
//
// Every BandwidthStrategy call is forwarded to the inner strategy inside a
// "strategy" span.  The inner strategy's log subscription is proxied: after
// the inner strategy attaches a connection, the decorator takes its place
// among the endpoint log's listeners and forwards each observation inside an
// "rpc.observe" span, so observation ingestion is timed on its own.  The
// inner strategy's change notification reaches the viceroy through a
// "viceroy.reeval" span.  Nothing else changes: the decorator adds no state
// the simulation can see, which the benchmark proves by comparing digests of
// traced and untraced runs.
//
// Only the traced runs install it.  Like CentralizedStrategy, it must be
// destroyed before the endpoints it was attached to.

#ifndef ODYBENCH_SRC_TRACED_STRATEGY_H_
#define ODYBENCH_SRC_TRACED_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/bandwidth_strategy.h"
#include "src/ledger.h"
#include "src/rpc/observation_log.h"

namespace odybench {

class TracedStrategy : public odyssey::BandwidthStrategy, public odyssey::LogListener {
 public:
  TracedStrategy(std::unique_ptr<odyssey::BandwidthStrategy> inner, Ledger* ledger);
  ~TracedStrategy() override;

  TracedStrategy(const TracedStrategy&) = delete;
  TracedStrategy& operator=(const TracedStrategy&) = delete;

  // BandwidthStrategy:
  std::string name() const override;
  void AttachConnection(odyssey::AppId app, odyssey::Endpoint* endpoint) override;
  void DetachConnection(odyssey::Endpoint* endpoint) override;
  double AvailabilityFor(odyssey::AppId app, odyssey::Time now) const override;
  bool HasEstimate() const override;
  double TotalSupply(odyssey::Time now) const override;
  odyssey::Duration SmoothedRttFor(odyssey::AppId app) const override;
  int ConnectionCountFor(odyssey::AppId app) const override;
  odyssey::AppId OwnerOf(odyssey::ConnectionId connection) const override;
  odyssey::ReevalHint TakeReevalHint(odyssey::Time now) override;
  odyssey::ArbitrationStrategy* arbitration() override;
  odyssey::CentralizedStrategy* audit_surface() override;

  // LogListener (the proxied subscription):
  void OnRoundTrip(odyssey::ConnectionId connection,
                   const odyssey::RoundTripObservation& obs) override;
  void OnThroughput(odyssey::ConnectionId connection,
                    const odyssey::ThroughputObservation& obs) override;
  void OnFailure(odyssey::ConnectionId connection,
                 const odyssey::FailureObservation& obs) override;

 private:
  std::unique_ptr<odyssey::BandwidthStrategy> inner_;
  // The inner strategy's own log subscription, or null when it has none.
  odyssey::LogListener* inner_listener_;
  Ledger* ledger_;
  std::vector<odyssey::Endpoint*> subscribed_;
};

}  // namespace odybench

#endif  // ODYBENCH_SRC_TRACED_STRATEGY_H_
