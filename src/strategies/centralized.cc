#include "src/strategies/centralized.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "src/trace/trace_macros.h"

namespace odyssey {
namespace {

// Estimator state is sampled after each observation folds in, so the trace
// shows the EWMA inputs (the observation) next to its outputs (the
// smoothed series) at the same sim time.
void TraceEstimatorState(Simulation* sim, const SupplyModelInterface& model,
                         ConnectionId connection) {
  const ConnectionEstimator* estimator = model.EstimatorFor(connection);
  if (estimator == nullptr) {
    return;
  }
  ODY_TRACE_COUNTER(sim->trace(), kEstimator, "rtt_us", sim->now(), connection,
                    static_cast<double>(estimator->smoothed_rtt()));
  ODY_TRACE_COUNTER(sim->trace(), kEstimator, "bandwidth_bps", sim->now(), connection,
                    estimator->bandwidth_bps());
  ODY_TRACE_COUNTER(sim->trace(), kEstimator, "supply_bps", sim->now(), 0, model.TotalSupply());
}

}  // namespace

CentralizedStrategy::CentralizedStrategy(Simulation* sim, const SupplyModelConfig& config)
    : sim_(sim), model_(std::make_unique<SupplyModel>(config)), exact_hints_(true) {}

CentralizedStrategy::CentralizedStrategy(Simulation* sim,
                                         std::unique_ptr<SupplyModelInterface> model)
    : sim_(sim), model_(std::move(model)) {}

void CentralizedStrategy::BumpCount(int from, int to) {
  if (from > 0) {
    const auto it = apps_by_count_.find(from);
    if (--it->second == 0) {
      apps_by_count_.erase(it);
    }
  }
  if (to > 0) {
    ++apps_by_count_[to];
  }
}

void CentralizedStrategy::MarkRttDirty(AppId app) {
  rtt_dirty_flag_.resize(std::max(rtt_dirty_flag_.size(), app + 1));
  if (!rtt_dirty_flag_[app]) {
    rtt_dirty_flag_[app] = true;
    rtt_dirty_.push_back(app);
  }
}

void CentralizedStrategy::AttachConnection(AppId app, Endpoint* endpoint) {
  model_->AddConnection(endpoint->id());
  table_.Attach(app, endpoint);
  const int count = ConnectionCountFor(app);
  BumpCount(count - 1, count);
  MarkRttDirty(app);
}

void CentralizedStrategy::DetachConnection(Endpoint* endpoint) {
  model_->RemoveConnection(endpoint->id());
  if (const AppId app = table_.Detach(endpoint); app != 0) {
    const int count = ConnectionCountFor(app);
    BumpCount(count + 1, count);
    MarkRttDirty(app);
  }
}

double CentralizedStrategy::AvailabilityFor(AppId app, Time now) const {
  double total = 0.0;
  for (const ConnectionId connection : ConnectionsOf(app)) {
    total += model_->AvailabilityFor(connection, now);
  }
  return total;
}

double CentralizedStrategy::TotalSupply(Time now) const {
  (void)now;
  return model_->TotalSupply();
}

Duration CentralizedStrategy::SmoothedRttFor(AppId app) const {
  for (const ConnectionId connection : ConnectionsOf(app)) {
    const ConnectionEstimator* estimator = model_->EstimatorFor(connection);
    if (estimator != nullptr) {
      return estimator->smoothed_rtt();
    }
  }
  return 0;
}

ReevalHint CentralizedStrategy::TakeReevalHint(Time now) {
  ReevalHint hint;
  hint.exact = exact_hints_;

  // Dirty: owners of connections with (possibly) unexpired usage, plus
  // every app whose rtt or connection set changed since the last hint.
  // The owners overwrite the live connections in place.  Each list is
  // sorted only when out of order, then both merge into the hint.
  live_.clear();
  model_->CollectLiveConnections(now, &live_);
  size_t owners = 0;
  for (const ConnectionId connection : live_) {
    if (table_.IsAttached(connection)) {
      live_[owners++] = table_.OwnerOf(connection);
    }
  }
  live_.resize(owners);
  if (!std::is_sorted(live_.begin(), live_.end())) {
    std::sort(live_.begin(), live_.end());
  }
  if (!std::is_sorted(rtt_dirty_.begin(), rtt_dirty_.end())) {
    std::sort(rtt_dirty_.begin(), rtt_dirty_.end());
  }
  hint.dirty.reserve(live_.size() + rtt_dirty_.size());
  std::merge(live_.begin(), live_.end(), rtt_dirty_.begin(), rtt_dirty_.end(),
             std::back_inserter(hint.dirty));
  hint.dirty.erase(std::unique(hint.dirty.begin(), hint.dirty.end()), hint.dirty.end());
  DrainReevalHint();
  if (!hint.exact) {
    return hint;
  }

  // Every connection of a non-dirty app is idle, so each contributes the
  // fair share of a not-currently-active connection — the same value the
  // model reports for an unknown connection (connection ids start at 1, so
  // 0 never names a real one).  Folding it in k times reproduces, addition
  // for addition, the sum AvailabilityFor(app) computes for such an app.
  const double unit = model_->AvailabilityFor(0, now);
  double level = 0.0;
  int folded = 0;
  hint.idle_levels.reserve(apps_by_count_.size());
  for (const auto& [count, napps] : apps_by_count_) {
    (void)napps;
    for (; folded < count; ++folded) {
      level += unit;
    }
    hint.idle_levels.emplace_back(count, level);
  }
  return hint;
}

void CentralizedStrategy::DrainReevalHint() {
  for (const AppId app : rtt_dirty_) {
    rtt_dirty_flag_[app] = false;
  }
  rtt_dirty_.clear();
}

void CentralizedStrategy::OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) {
  ODY_TRACE_INSTANT1(sim_->trace(), kEstimator, "rtt_obs", sim_->now(), connection, "rtt_us",
                     static_cast<double>(obs.rtt));
  model_->OnRoundTrip(connection, obs);
  if (table_.IsAttached(connection)) {
    MarkRttDirty(table_.OwnerOf(connection));
  }
  TraceEstimatorState(sim_, *model_, connection);
  NotifyChanged();
}

void CentralizedStrategy::OnThroughput(ConnectionId connection, const ThroughputObservation& obs) {
  ODY_TRACE_INSTANT2(sim_->trace(), kEstimator, "throughput_obs", sim_->now(), connection,
                     "window_bytes", static_cast<double>(obs.window_bytes), "elapsed_us",
                     static_cast<double>(obs.elapsed));
  model_->OnThroughput(connection, obs);
  TraceEstimatorState(sim_, *model_, connection);
  NotifyChanged();
}

void CentralizedStrategy::OnFailure(ConnectionId connection, const FailureObservation& obs) {
  ODY_TRACE_INSTANT1(sim_->trace(), kEstimator, "failure_obs", sim_->now(), connection,
                     "attempts", static_cast<double>(obs.attempts));
  model_->OnFailure(connection, obs);
  TraceEstimatorState(sim_, *model_, connection);
  NotifyChanged();
}

double CentralizedStrategy::ConnectionAvailability(ConnectionId connection, Time now) const {
  return model_->AvailabilityFor(connection, now);
}

}  // namespace odyssey
