// Centralized supply and per-connection availability estimation (§6.2.1).
//
// The viceroy collects information from all endpoint logs to estimate the
// total bandwidth available to the client, then estimates the fraction
// likely to be available to each connection as the larger of a *fair-share*
// lower bound (supply / active connections) and a *competed-for* part
// proportional to recent use.
//
// Supply estimation: each completed window yields a capacity sample equal
// to the larger of two lower bounds — the window's raw rate (the link
// carried at least that much for one flow) and the aggregate recent
// delivery rate across all connections (the link carried at least their
// sum).  Since every sample is a lower bound, the supply estimate is their
// upper envelope: a sliding-window maximum anchored at the latest
// observation.  A capacity drop is detected once the stale high samples
// age out (about one window), matching the paper's ~2 s Step-Down settling
// and its observation that the 2 s downward impulse is too short for
// estimation to settle.  Per-
// connection availability is the fair share (supply / active connections)
// plus a competed-for slice of the unused headroom proportional to recent
// use, capped at the supply.
//
// Two implementations live behind SupplyModelInterface:
//
//   * SupplyModel — the production model.  It keeps a *live set*: the
//     connections whose usage meters may still hold unexpired events.  An
//     idle connection's rate is exactly 0.0 and adding 0.0 to an IEEE sum
//     of non-negative terms changes no bits, so summing only the live set
//     in ascending connection-id order reproduces the full-scan aggregate
//     bit for bit while costing O(recently active) instead of
//     O(registered).  Aggregate and active-count results are cached per
//     (time, mutation version), so a burst of availability queries at one
//     instant — the viceroy re-evaluating every app — pays for one scan.
//     Per-connection state lives in a dense vector indexed by connection
//     id (ids are per-Simulation counters starting at 1), and each scan
//     memoizes every live connection's usage rate in a dense 16-byte row
//     {rate, registered} beside it.  The terms every answer shares
//     (supply, the two fair shares, slack) are memoized per (instant,
//     generation), so a query after the scan is one row read and a few
//     flops: no map lookup, no second walk of the usage meter, and the same
//     expressions in the same order.  In stream_256 the viceroy's ~253
//     queries per observation cost about 46 cycles a candidate, ask and
//     window check included (rdtsc, shared 2.1 GHz 4-vCPU host).
//   * NaiveSupplyModel — the original full-rescan implementation, kept
//     verbatim as the reference side of the differential tests
//     (tests/scale_differential_test.cc) and injected by a RigSpec::reference
//     rig.  Never used in production paths.

#ifndef SRC_ESTIMATOR_SUPPLY_MODEL_H_
#define SRC_ESTIMATOR_SUPPLY_MODEL_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/estimator/connection_estimator.h"
#include "src/estimator/sliding_max.h"
#include "src/estimator/usage_meter.h"
#include "src/rpc/observation_log.h"
#include "src/sim/time.h"

namespace odyssey {

struct SupplyModelConfig {
  EstimatorConfig estimator;
  // Time constant of the recent-use decay.
  Duration usage_tau = 2 * kSecond;
  // Width of the supply upper-envelope window.
  Duration supply_window = 2 * kSecond;
  // A connection with no usage for this long stops counting toward the
  // fair-share denominator.
  Duration activity_window = 5 * kSecond;
};

// The estimator contract shared by the incremental model and the naive
// reference.  Everything the strategies, oracles and diagnostics need.
class SupplyModelInterface {
 public:
  virtual ~SupplyModelInterface() = default;

  virtual const char* name() const = 0;

  // Registers a connection.  Registered connections count toward fair-share
  // splitting once they have recent usage.
  virtual void AddConnection(ConnectionId connection) = 0;
  virtual void RemoveConnection(ConnectionId connection) = 0;

  // Feeds observations from connection logs.
  virtual void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) = 0;
  virtual void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) = 0;
  virtual void OnFailure(ConnectionId connection, const FailureObservation& obs) = 0;

  // Estimated total bandwidth available to the client, bytes/second.
  virtual double TotalSupply() const = 0;
  virtual bool has_supply() const = 0;

  // Estimated bandwidth available to |connection| at time |now|:
  // max(fair share, competed-for share).  Unknown connections get the fair
  // share of a hypothetical additional connection.
  virtual double AvailabilityFor(ConnectionId connection, Time now) const = 0;

  // Number of connections with significant recent usage at |now| (at least
  // one, once any connection exists).
  virtual int ActiveConnectionCount(Time now) const = 0;

  // Per-connection smoothed estimates, for diagnostics and the
  // laissez-faire strategy.
  virtual const ConnectionEstimator* EstimatorFor(ConnectionId connection) const = 0;
  virtual double UsageRateFor(ConnectionId connection, Time now) const = 0;

  // Appends the connections whose availability may differ from the idle
  // level at |now| (a superset is allowed).  The centralized strategy turns
  // these into the dirty-app set of its re-evaluation hint.
  virtual void CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const = 0;

  // A counter that changes whenever an AvailabilityFor answer at a fixed
  // instant may change: every mutating call (Add/RemoveConnection and the
  // three observation feeds) moves it, and queries never do.  A caller may
  // memoize answers per (instant, generation).  It is not scan_ops and not
  // the incremental model's scan-cache version, so memoizing on it moves
  // neither.
  virtual uint64_t generation() const = 0;

  // Lifetime count of per-connection meter evaluations performed by
  // aggregate scans and availability queries — a deterministic proxy for
  // the model's work, independent of the machine (the tier_scale campaign
  // charts it against the naive model's count).
  virtual uint64_t scan_ops() const = 0;
};

// The incremental production model (live set + per-instant cache).
class SupplyModel : public SupplyModelInterface {
 public:
  explicit SupplyModel(const SupplyModelConfig& config = {});

  const char* name() const override { return "incremental"; }
  void AddConnection(ConnectionId connection) override;
  void RemoveConnection(ConnectionId connection) override;
  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override;
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override;
  void OnFailure(ConnectionId connection, const FailureObservation& obs) override;
  double TotalSupply() const override { return supply_.value(); }
  bool has_supply() const override { return supply_.has_value(); }
  double AvailabilityFor(ConnectionId connection, Time now) const override;
  int ActiveConnectionCount(Time now) const override;
  const ConnectionEstimator* EstimatorFor(ConnectionId connection) const override;
  double UsageRateFor(ConnectionId connection, Time now) const override;
  void CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const override;
  uint64_t generation() const override { return generation_; }
  uint64_t scan_ops() const override { return scan_ops_; }

 private:
  struct PerConnection {
    ConnectionEstimator estimator;
    UsageMeter usage;

    PerConnection() = default;
    explicit PerConnection(const SupplyModelConfig& config)
        : estimator(config.estimator), usage(config.usage_tau) {}
  };

  // What a query reads of one connection, kept dense beside the large
  // PerConnection so a burst of queries walks 16-byte rows.
  struct Row {
    // usage.RateAt at the last ScanAt's instant for a live connection, and
    // exactly 0.0 — an empty meter's rate — for every other: rows start at
    // 0.0, removal resets the row, and the scan that evicts a connection
    // stores the 0.0 its pruned-empty meter read.
    mutable double rate = 0.0;
    bool registered = false;
  };

  // AvailabilityFor's terms that do not depend on the connection asked
  // about, at one instant.
  struct SharedTerms {
    double supply = 0.0;
    double fair_share_active = 0.0;  // for a connection among the active ones
    double fair_share_idle = 0.0;    // for one that would join them
    double total_usage = 0.0;
    double slack = 0.0;
  };

  // The registered connection |connection|, or nullptr.
  const PerConnection* Find(ConnectionId connection) const {
    if (connection >= rows_.size() || !rows_[connection].registered) {
      return nullptr;
    }
    return &connections_[connection];
  }
  PerConnection* Find(ConnectionId connection) {
    return const_cast<PerConnection*>(std::as_const(*this).Find(connection));
  }

  // Recomputes (and caches) the aggregate usage rate and active count over
  // the live set at |now|, evicting connections whose meters pruned empty
  // and memoizing each live connection's rate.
  void ScanAt(Time now) const;

  // Recomputes terms_ at |now|, scanning as the first query at |now| would.
  void RefreshTerms(Time now) const;

  SupplyModelConfig config_;
  // Indexed by connection id; slot 0 and unregistered ids stay default.
  std::vector<PerConnection> connections_;
  std::vector<Row> rows_;  // indexed like connections_
  size_t registered_ = 0;
  SlidingMax supply_;

  // Ascending ids of connections whose meters may hold unexpired events.
  // Mutated lazily from const scans (eviction), like the meters' pruning.
  mutable std::vector<ConnectionId> live_;

  // Cache of the last ScanAt, keyed by (time, mutation version).
  mutable bool cache_valid_ = false;
  mutable Time cache_at_ = 0;
  mutable uint64_t cache_version_ = 0;
  mutable double cached_usage_ = 0.0;
  mutable int cached_active_ = 0;

  // Memo of the last RefreshTerms, keyed by (time, generation).  Not by
  // version_: OnFailure and AddConnection move the supply or the
  // registered count without bumping it.  A rescan clears it, so a memo
  // hit implies the scan at its instant is still cached.
  mutable bool terms_valid_ = false;
  mutable Time terms_at_ = 0;
  mutable uint64_t terms_generation_ = 0;
  mutable SharedTerms terms_;

  uint64_t version_ = 0;  // bumped whenever a meter or the live set changes
  uint64_t generation_ = 0;  // bumped by every mutating call
  mutable uint64_t scan_ops_ = 0;
};

// The original O(registered-connections) implementation, preserved as the
// reference side of the differential tests.
class NaiveSupplyModel : public SupplyModelInterface {
 public:
  explicit NaiveSupplyModel(const SupplyModelConfig& config = {});

  const char* name() const override { return "naive"; }
  void AddConnection(ConnectionId connection) override;
  void RemoveConnection(ConnectionId connection) override;
  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override;
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override;
  void OnFailure(ConnectionId connection, const FailureObservation& obs) override;
  double TotalSupply() const override { return supply_.value(); }
  bool has_supply() const override { return supply_.has_value(); }
  double AvailabilityFor(ConnectionId connection, Time now) const override;
  int ActiveConnectionCount(Time now) const override;
  const ConnectionEstimator* EstimatorFor(ConnectionId connection) const override;
  double UsageRateFor(ConnectionId connection, Time now) const override;
  void CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const override;
  uint64_t generation() const override { return generation_; }
  uint64_t scan_ops() const override { return scan_ops_; }

 private:
  struct PerConnection {
    ConnectionEstimator estimator;
    UsageMeter usage;

    explicit PerConnection(const SupplyModelConfig& config)
        : estimator(config.estimator), usage(config.usage_tau) {}
  };

  SupplyModelConfig config_;
  std::map<ConnectionId, PerConnection> connections_;
  SlidingMax supply_;
  uint64_t generation_ = 0;  // bumped by every mutating call
  mutable uint64_t scan_ops_ = 0;
};

}  // namespace odyssey

#endif  // SRC_ESTIMATOR_SUPPLY_MODEL_H_
