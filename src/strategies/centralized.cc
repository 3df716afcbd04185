#include "src/strategies/centralized.h"

#include <algorithm>
#include <utility>

#include "src/core/contract.h"
#include "src/trace/trace_macros.h"

namespace odyssey {
namespace {

// Grows |table| so |id| indexes it.
template <typename T>
void EnsureSlot(std::vector<T>* table, uint64_t id) {
  if (id >= table->size()) {
    table->resize(id + 1);
  }
}

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

CentralizedStrategy::CentralizedStrategy(Simulation* sim, const SupplyModelConfig& config,
                                         SupplyModelKind kind)
    : sim_(sim), model_(MakeSupplyModel(kind, config)) {
  if (kind == SupplyModelKind::kIncremental) {
    fast_model_ = static_cast<SupplyModel*>(model_.get());
  }
}

CentralizedStrategy::CentralizedStrategy(Simulation* sim,
                                         std::unique_ptr<SupplyModelInterface> model)
    : sim_(sim), model_(std::move(model)) {}

CentralizedStrategy::~CentralizedStrategy() {
  for (Endpoint* endpoint : endpoints_) {
    if (endpoint != nullptr) {
      endpoint->log().RemoveListener(this);
    }
  }
}

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
  EnsureSlot(&rtt_dirty_flag_, app);
  if (!rtt_dirty_flag_[app]) {
    rtt_dirty_flag_[app] = true;
    rtt_dirty_.push_back(app);
  }
}

const std::vector<ConnectionId>& CentralizedStrategy::ConnectionsOf(AppId app) const {
  static const std::vector<ConnectionId> kNone;
  return app < app_connections_.size() ? app_connections_[app] : kNone;
}

void CentralizedStrategy::AttachConnection(AppId app, Endpoint* endpoint) {
  const ConnectionId id = endpoint->id();
  model_->AddConnection(id);
  EnsureSlot(&owner_, id);
  EnsureSlot(&endpoints_, id);
  owner_[id] = app;
  endpoints_[id] = endpoint;
  EnsureSlot(&app_connections_, app);
  std::vector<ConnectionId>& conns = app_connections_[app];
  const int before = static_cast<int>(conns.size());
  conns.insert(std::lower_bound(conns.begin(), conns.end(), id), id);
  BumpCount(before, before + 1);
  MarkRttDirty(app);
  endpoint->log().AddListener(this);
}

void CentralizedStrategy::DetachConnection(Endpoint* endpoint) {
  const ConnectionId id = endpoint->id();
  endpoint->log().RemoveListener(this);
  model_->RemoveConnection(id);
  if (IsAttached(id)) {
    const AppId app = owner_[id];
    std::vector<ConnectionId>& conns = app_connections_[app];
    conns.erase(std::find(conns.begin(), conns.end(), id));
    BumpCount(static_cast<int>(conns.size()) + 1, static_cast<int>(conns.size()));
    MarkRttDirty(app);
    owner_[id] = 0;
    endpoints_[id] = nullptr;
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

int CentralizedStrategy::ConnectionCountFor(AppId app) const {
  return static_cast<int>(ConnectionsOf(app).size());
}

AppId CentralizedStrategy::OwnerOf(ConnectionId connection) const {
  return connection < owner_.size() ? owner_[connection] : 0;
}

ReevalHint CentralizedStrategy::TakeReevalHint(Time now) {
  ReevalHint hint;
  hint.exact = fast_model_ != nullptr;

  // Dirty: owners of connections with (possibly) unexpired usage, plus
  // every app whose rtt or connection set changed since the last hint.
  // Both lists are sized up front, so each is one allocation.
  live_.clear();
  model_->CollectLiveConnections(now, &live_);
  hint.dirty.reserve(live_.size() + rtt_dirty_.size());
  for (const ConnectionId connection : live_) {
    if (IsAttached(connection)) {
      hint.dirty.push_back(owner_[connection]);
    }
  }
  for (const AppId app : rtt_dirty_) {
    rtt_dirty_flag_[app] = false;
  }
  hint.dirty.insert(hint.dirty.end(), rtt_dirty_.begin(), rtt_dirty_.end());
  rtt_dirty_.clear();
  // In steady state the live owners are already ascending and no rtt is
  // dirty, so the sort is skipped.
  if (!std::is_sorted(hint.dirty.begin(), hint.dirty.end())) {
    std::sort(hint.dirty.begin(), hint.dirty.end());
  }
  hint.dirty.erase(std::unique(hint.dirty.begin(), hint.dirty.end()), hint.dirty.end());
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

void CentralizedStrategy::OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) {
  ODY_TRACE_INSTANT1(sim_->trace(), kEstimator, "rtt_obs", sim_->now(), connection, "rtt_us",
                     static_cast<double>(obs.rtt));
  model_->OnRoundTrip(connection, obs);
  if (IsAttached(connection)) {
    MarkRttDirty(owner_[connection]);
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

void CentralizedStrategy::AttachedConnections(std::vector<ConnectionId>* out) const {
  out->clear();
  for (ConnectionId connection = 0; connection < endpoints_.size(); ++connection) {
    if (IsAttached(connection)) {
      out->push_back(connection);
    }
  }
}

}  // namespace odyssey
