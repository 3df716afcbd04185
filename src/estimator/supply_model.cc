#include "src/estimator/supply_model.h"

#include <algorithm>

namespace odyssey {

// --- SupplyModel (incremental) ---
//
// Bit-identity with the naive full rescan rests on two facts: an idle
// connection (meter pruned empty) contributes exactly 0.0 to the aggregate,
// and x + 0.0 == x for every non-negative IEEE double — so summing only the
// live set, in the same ascending-id order the full scan uses, produces the
// same bits.  The differential tests hold the model to this.

SupplyModel::SupplyModel(const SupplyModelConfig& config)
    : config_(config), supply_(config.supply_window) {}

void SupplyModel::AddConnection(ConnectionId connection) {
  ++generation_;
  if (connection >= connections_.size()) {
    connections_.resize(connection + 1);
    rows_.resize(connection + 1);
  }
  if (!rows_[connection].registered) {
    connections_[connection] = PerConnection(config_);
    rows_[connection] = Row{0.0, true};
    ++registered_;
  }
}

void SupplyModel::RemoveConnection(ConnectionId connection) {
  ++generation_;
  PerConnection* state = Find(connection);
  if (state == nullptr) {
    return;
  }
  *state = PerConnection();
  rows_[connection] = Row{};
  --registered_;
  const auto it = std::lower_bound(live_.begin(), live_.end(), connection);
  if (it != live_.end() && *it == connection) {
    live_.erase(it);
  }
  ++version_;
}

void SupplyModel::OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) {
  ++generation_;
  if (PerConnection* state = Find(connection)) {
    state->estimator.OnRoundTrip(obs);
  }
}

void SupplyModel::OnThroughput(ConnectionId connection, const ThroughputObservation& obs) {
  ++generation_;
  PerConnection* state = Find(connection);
  if (state == nullptr) {
    return;
  }
  const double raw_bps = state->estimator.OnThroughput(obs);
  // The window's bytes arrived over its whole transfer span, not at the
  // completion instant.
  state->usage.Record(obs.at - obs.elapsed, obs.at, obs.window_bytes);
  const auto pos = std::lower_bound(live_.begin(), live_.end(), connection);
  if (pos == live_.end() || *pos != connection) {
    live_.insert(pos, connection);
  }
  ++version_;

  // Capacity sample: the larger of two lower bounds on link capacity.  The
  // window's raw rate is one (the link carried at least that for one flow);
  // the aggregate recent delivery rate across every connection is another
  // (the link carried at least their sum).  Taking the max never double
  // counts: a burst that ran fast because competitors were momentarily idle
  // is not inflated by their long-run usage.
  ScanAt(obs.at);
  const double aggregate = cached_usage_;
  supply_.Push(obs.at, raw_bps > aggregate ? raw_bps : aggregate);
}

void SupplyModel::OnFailure(ConnectionId connection, const FailureObservation& obs) {
  ++generation_;
  if (Find(connection) == nullptr) {
    return;
  }
  // A failed exchange is the only downward evidence a dead link produces:
  // no window completes, so no throughput sample would ever age the stale
  // highs out of the envelope.  Push a zero-capacity sample so the supply
  // estimate decays to zero within one envelope window of sustained
  // failure, and availability with it — turning an outage into a
  // disconnection decision instead of optimistic paralysis.
  supply_.Push(obs.at, 0.0);
}

void SupplyModel::ScanAt(Time now) const {
  if (cache_valid_ && cache_at_ == now && cache_version_ == version_) {
    return;
  }
  double aggregate = 0.0;
  int active = 0;
  size_t keep = 0;
  for (const ConnectionId id : live_) {
    const UsageMeter& usage = connections_[id].usage;
    ++scan_ops_;
    const double rate = usage.RateAt(now);
    rows_[id].rate = rate;
    aggregate += rate;
    if (rate > 16.0) {  // UsageMeter::ActiveAt's default threshold
      ++active;
    }
    // Eviction: RateAt pruned the meter; once empty it stays empty (event
    // end times are non-decreasing), so the connection is idle for good
    // until its next Record.
    if (!usage.empty()) {
      live_[keep++] = id;
    }
  }
  live_.resize(keep);
  terms_valid_ = false;
  cache_valid_ = true;
  cache_at_ = now;
  cache_version_ = version_;
  cached_usage_ = aggregate;
  cached_active_ = active;
}

// After ScanAt(now), a connection's rate at |now| is its scan memo: the
// scan evaluated RateAt(now) on the same meter, and a second evaluation at
// the same instant prunes nothing more and sums the same events in the
// same order — the same bits the naive model's ActiveAt/RateAt calls read.
//
// The terms every connection shares are computed once per (instant,
// generation) by RefreshTerms, each with the expression the per-query
// formula below would evaluate, so a query reads them and does the rest:
//
//   share_ways   = active + (self_active ? 0 : 1)
//   fair_share   = supply / max(share_ways, 1)
//   slack        = max(supply - total_usage, 0)
//   availability = min(fair_share + slack * (rate / total_usage), supply)
void SupplyModel::RefreshTerms(Time now) const {
  SharedTerms terms;
  terms.supply = TotalSupply();
  if (terms.supply > 0.0) {
    const double supply = terms.supply;
    const int active = ActiveConnectionCount(now);
    // Fair share: the expected lower bound (§6.2.1).  If this connection
    // is not among the currently active ones, it would join them, so split
    // one way further.
    const int active_ways = active;
    const int idle_ways = active + 1;
    terms.fair_share_active = supply / static_cast<double>(active_ways < 1 ? 1 : active_ways);
    terms.fair_share_idle = supply / static_cast<double>(idle_ways < 1 ? 1 : idle_ways);
    terms.total_usage = cached_usage_;
    terms.slack = supply > terms.total_usage ? supply - terms.total_usage : 0.0;
  }
  terms_ = terms;
  terms_valid_ = true;
  terms_at_ = now;
  terms_generation_ = generation_;
}

double SupplyModel::AvailabilityFor(ConnectionId connection, Time now) const {
  if (!terms_valid_ || terms_at_ != now || terms_generation_ != generation_) {
    RefreshTerms(now);
  }
  const SharedTerms& terms = terms_;
  if (terms.supply <= 0.0) {
    return 0.0;
  }
  ++scan_ops_;
  const bool known = connection < rows_.size() && rows_[connection].registered;
  const double rate = known ? rows_[connection].rate : 0.0;
  const bool self_active = rate > 16.0;  // UsageMeter::ActiveAt's default threshold
  const double fair_share = self_active ? terms.fair_share_active : terms.fair_share_idle;

  if (!known) {
    return fair_share;
  }

  // Competed-for part: the capacity not currently consumed by anyone is
  // available in proportion to recent use — established traffic has more
  // claim on the headroom than a newcomer, which starts from its fair share
  // and grows as its usage registers ("higher rates of consumption by the
  // first stream give it more weight compared to the startup of the
  // second", §6.2.1).
  if (terms.total_usage <= 0.0) {
    return fair_share;
  }
  const double competed_for = terms.slack * (rate / terms.total_usage);
  const double availability = fair_share + competed_for;
  return availability < terms.supply ? availability : terms.supply;
}

int SupplyModel::ActiveConnectionCount(Time now) const {
  ScanAt(now);
  int active = cached_active_;
  if (active == 0 && registered_ > 0) {
    active = 1;
  }
  return active;
}

const ConnectionEstimator* SupplyModel::EstimatorFor(ConnectionId connection) const {
  const PerConnection* state = Find(connection);
  return state == nullptr ? nullptr : &state->estimator;
}

double SupplyModel::UsageRateFor(ConnectionId connection, Time now) const {
  const PerConnection* state = Find(connection);
  return state == nullptr ? 0.0 : state->usage.RateAt(now);
}

void SupplyModel::CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const {
  (void)now;  // the unevicted live set is a valid superset at any instant
  out->insert(out->end(), live_.begin(), live_.end());
}

// --- NaiveSupplyModel (reference) ---
//
// The pre-scale implementation, verbatim except for the scan_ops counter:
// every estimator update and every availability query rescans all
// registered connections.

NaiveSupplyModel::NaiveSupplyModel(const SupplyModelConfig& config)
    : config_(config), supply_(config.supply_window) {}

void NaiveSupplyModel::AddConnection(ConnectionId connection) {
  ++generation_;
  connections_.try_emplace(connection, config_);
}

void NaiveSupplyModel::RemoveConnection(ConnectionId connection) {
  ++generation_;
  connections_.erase(connection);
}

void NaiveSupplyModel::OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) {
  ++generation_;
  auto it = connections_.find(connection);
  if (it == connections_.end()) {
    return;
  }
  it->second.estimator.OnRoundTrip(obs);
}

void NaiveSupplyModel::OnThroughput(ConnectionId connection, const ThroughputObservation& obs) {
  ++generation_;
  auto it = connections_.find(connection);
  if (it == connections_.end()) {
    return;
  }
  const double raw_bps = it->second.estimator.OnThroughput(obs);
  it->second.usage.Record(obs.at - obs.elapsed, obs.at, obs.window_bytes);

  double aggregate = 0.0;
  for (const auto& [id, state] : connections_) {
    ++scan_ops_;
    aggregate += state.usage.RateAt(obs.at);
  }
  supply_.Push(obs.at, raw_bps > aggregate ? raw_bps : aggregate);
}

void NaiveSupplyModel::OnFailure(ConnectionId connection, const FailureObservation& obs) {
  ++generation_;
  if (!connections_.contains(connection)) {
    return;
  }
  supply_.Push(obs.at, 0.0);
}

double NaiveSupplyModel::AvailabilityFor(ConnectionId connection, Time now) const {
  const double supply = TotalSupply();
  if (supply <= 0.0) {
    return 0.0;
  }
  const int active = ActiveConnectionCount(now);

  const auto it = connections_.find(connection);
  const bool known = it != connections_.end();
  ++scan_ops_;
  const bool self_active = known && it->second.usage.ActiveAt(now);

  const int share_ways = active + (self_active ? 0 : 1);
  const double fair_share = supply / static_cast<double>(share_ways < 1 ? 1 : share_ways);

  if (!known) {
    return fair_share;
  }

  double total_usage = 0.0;
  for (const auto& [id, state] : connections_) {
    ++scan_ops_;
    total_usage += state.usage.RateAt(now);
  }
  if (total_usage <= 0.0) {
    return fair_share;
  }
  const double slack = supply > total_usage ? supply - total_usage : 0.0;
  const double competed_for = slack * (it->second.usage.RateAt(now) / total_usage);
  const double availability = fair_share + competed_for;
  return availability < supply ? availability : supply;
}

int NaiveSupplyModel::ActiveConnectionCount(Time now) const {
  int active = 0;
  for (const auto& [id, state] : connections_) {
    ++scan_ops_;
    if (state.usage.ActiveAt(now)) {
      ++active;
    }
  }
  if (active == 0 && !connections_.empty()) {
    active = 1;
  }
  return active;
}

const ConnectionEstimator* NaiveSupplyModel::EstimatorFor(ConnectionId connection) const {
  const auto it = connections_.find(connection);
  return it == connections_.end() ? nullptr : &it->second.estimator;
}

double NaiveSupplyModel::UsageRateFor(ConnectionId connection, Time now) const {
  const auto it = connections_.find(connection);
  return it == connections_.end() ? 0.0 : it->second.usage.RateAt(now);
}

void NaiveSupplyModel::CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const {
  (void)now;  // the naive model has no live set; every connection qualifies
  for (const auto& [id, state] : connections_) {
    out->push_back(id);
  }
}

}  // namespace odyssey
