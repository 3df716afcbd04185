// Odyssey's centralized bandwidth management (§6.2.1).
//
// Subscribes to every attached endpoint's observation log, feeds a
// SupplyModel, and reports per-application availability as the sum of the
// application's per-connection shares (fair-share floor plus competed-for
// part proportional to recent use).
//
// The strategy also keeps the incremental bookkeeping behind the viceroy's
// indexed re-evaluation (TakeReevalHint): per-app connection lists (a
// ConnectionTable, so a per-app query is array reads), a histogram of apps
// by connection count, and the apps whose rtt may have moved since the
// last hint.  An app none of whose connections has recent usage or a fresh
// rtt sample sees availability of exactly (connection count) x (idle fair
// share) — the hint reports those idle levels so the viceroy can probe the
// request table's interval index instead of re-deriving every app's
// availability.

#ifndef SRC_STRATEGIES_CENTRALIZED_H_
#define SRC_STRATEGIES_CENTRALIZED_H_

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/core/bandwidth_strategy.h"
#include "src/estimator/supply_model.h"
#include "src/rpc/observation_log.h"
#include "src/sim/simulation.h"
#include "src/strategies/connection_table.h"

namespace odyssey {

class CentralizedStrategy : public BandwidthStrategy, public LogListener {
 public:
  // Builds the incremental SupplyModel, whose live set makes hints exact.
  explicit CentralizedStrategy(Simulation* sim, const SupplyModelConfig& config = {});
  // Injects a caller-built supply model (the fleet-aggregated model from
  // src/fleet, or the reference stack's NaiveSupplyModel).  Hints are
  // inexact for injected models, so the viceroy scans every window holder.
  CentralizedStrategy(Simulation* sim, std::unique_ptr<SupplyModelInterface> model);

  // BandwidthStrategy:
  std::string name() const override { return "odyssey"; }
  void AttachConnection(AppId app, Endpoint* endpoint) override;
  void DetachConnection(Endpoint* endpoint) override;
  double AvailabilityFor(AppId app, Time now) const override;
  bool HasEstimate() const override { return model_->has_supply(); }
  double TotalSupply(Time now) const override;
  Duration SmoothedRttFor(AppId app) const override;
  int ConnectionCountFor(AppId app) const override {
    return static_cast<int>(table_.ConnectionsOf(app).size());
  }
  AppId OwnerOf(ConnectionId connection) const override { return table_.OwnerOf(connection); }
  ReevalHint TakeReevalHint(Time now) override;
  // Clears what the next hint would report without building it, for
  // wrappers whose hints are inexact (the viceroy reads nothing from those).
  void DrainReevalHint();

  // LogListener:
  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override;
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override;
  void OnFailure(ConnectionId connection, const FailureObservation& obs) override;

  // Share estimate for one connection (Figure 9's lower curve).  Virtual so
  // derived strategies that redistribute shares (congestion-manager) audit
  // under the same fair-share oracle.
  virtual double ConnectionAvailability(ConnectionId connection, Time now) const;

  // Every currently attached connection, in id order.  The fuzzing oracles
  // iterate these to audit the fair-share lower bound per connection.
  const std::vector<ConnectionId>& AttachedConnections() const { return table_.attached(); }

  const SupplyModelInterface& supply_model() const { return *model_; }

  CentralizedStrategy* audit_surface() override { return this; }

 protected:
  // Derived strategies (congestion-manager) reuse the attach/detach
  // bookkeeping and the supply model but regroup shares; they read these
  // directly rather than duplicating the tables.
  //
  // |app|'s attached connections in ascending id order (empty if none).
  std::span<const ConnectionId> ConnectionsOf(AppId app) const { return table_.ConnectionsOf(app); }
  const SupplyModelInterface* model() const { return model_.get(); }
  Simulation* simulation() const { return sim_; }

 private:
  // Moves one app between connection-count buckets of the histogram.
  void BumpCount(int from, int to);
  // Adds |app| to the rtt-dirty set.
  void MarkRttDirty(AppId app);

  Simulation* sim_;
  std::unique_ptr<SupplyModelInterface> model_;
  // True when the strategy built |model_| itself: the incremental model's
  // live-set bookkeeping is what makes TakeReevalHint's result exact.
  bool exact_hints_ = false;
  ConnectionTable table_{this};
  // connection count -> number of apps with that count (zero-count apps
  // and empty buckets omitted).  The support of the hint's idle_levels.
  std::map<int, int> apps_by_count_;
  // Apps whose rtt or connection set changed since the last hint, unsorted
  // and unique: |rtt_dirty_flag_| (indexed by app id) marks membership.
  std::vector<AppId> rtt_dirty_;
  std::vector<bool> rtt_dirty_flag_;
  // TakeReevalHint's scratch, reused across hints: the live connections,
  // then (in place) their owners.
  std::vector<ConnectionId> live_;
};

}  // namespace odyssey

#endif  // SRC_STRATEGIES_CENTRALIZED_H_
