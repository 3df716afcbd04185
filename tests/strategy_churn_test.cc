// Churn differential test for the isolated-estimate strategies.
//
// Laissez-faire and blind-optimism answer per-app queries from a
// ConnectionTable (dense rows, per-app lists ascending by connection id).
// This suite drives each through seeded attach / detach / re-attach
// sequences — several connections per app, ids attached out of app order,
// observations on attached and detached connections — beside a verbatim
// copy of the map-walking implementation they replaced, and compares every
// answer raw bit for raw bit after each step.

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/bandwidth_strategy.h"
#include "src/estimator/connection_estimator.h"
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/rpc/endpoint.h"
#include "src/rpc/observation_log.h"
#include "src/sim/simulation.h"
#include "src/strategies/blind_optimism.h"
#include "src/strategies/laissez_faire.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {
namespace {

// --- Reference: the map-walking laissez-faire strategy, verbatim. ---

class MapLaissezFaireStrategy : public BandwidthStrategy, public LogListener {
 public:
  explicit MapLaissezFaireStrategy(const EstimatorConfig& config = {}) : config_(config) {}
  ~MapLaissezFaireStrategy() override {
    for (auto& [connection, endpoint] : endpoints_) {
      endpoint->log().RemoveListener(this);
    }
  }

  std::string name() const override { return "laissez-faire"; }

  void AttachConnection(AppId app, Endpoint* endpoint) override {
    estimators_.try_emplace(endpoint->id(), config_);
    owner_[endpoint->id()] = app;
    endpoints_[endpoint->id()] = endpoint;
    endpoint->log().AddListener(this);
  }

  void DetachConnection(Endpoint* endpoint) override {
    endpoint->log().RemoveListener(this);
    estimators_.erase(endpoint->id());
    owner_.erase(endpoint->id());
    endpoints_.erase(endpoint->id());
  }

  double AvailabilityFor(AppId app, Time now) const override {
    (void)now;
    double total = 0.0;
    for (const auto& [connection, owner] : owner_) {
      if (owner == app) {
        const auto it = estimators_.find(connection);
        if (it != estimators_.end()) {
          total += it->second.bandwidth_bps();
        }
      }
    }
    return total;
  }

  bool HasEstimate() const override {
    for (const auto& [connection, estimator] : estimators_) {
      if (estimator.has_bandwidth()) {
        return true;
      }
    }
    return false;
  }

  double TotalSupply(Time now) const override {
    (void)now;
    double best = 0.0;
    for (const auto& [connection, estimator] : estimators_) {
      if (estimator.bandwidth_bps() > best) {
        best = estimator.bandwidth_bps();
      }
    }
    return best;
  }

  Duration SmoothedRttFor(AppId app) const override {
    for (const auto& [connection, owner] : owner_) {
      if (owner == app) {
        const auto it = estimators_.find(connection);
        if (it != estimators_.end()) {
          return it->second.smoothed_rtt();
        }
      }
    }
    return 0;
  }

  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override {
    auto it = estimators_.find(connection);
    if (it == estimators_.end()) {
      return;
    }
    it->second.OnRoundTrip(obs);
    NotifyChanged();
  }

  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override {
    auto it = estimators_.find(connection);
    if (it == estimators_.end()) {
      return;
    }
    it->second.OnThroughput(obs);
    NotifyChanged();
  }

 private:
  EstimatorConfig config_;
  std::map<ConnectionId, ConnectionEstimator> estimators_;
  std::map<ConnectionId, AppId> owner_;
  std::map<ConnectionId, Endpoint*> endpoints_;
};

// --- Reference: the map-walking blind-optimism strategy, verbatim. ---

class MapBlindOptimismStrategy : public BandwidthStrategy, public LogListener {
 public:
  explicit MapBlindOptimismStrategy(Modulator* modulator, const EstimatorConfig& config = {})
      : config_(config) {
    modulator->AddTransitionListener([this](const TraceSegment& segment) {
      theoretical_bps_ = segment.bandwidth_bps;
      informed_ = true;
      NotifyChanged();
    });
  }
  ~MapBlindOptimismStrategy() override {
    for (auto& [connection, endpoint] : endpoints_) {
      endpoint->log().RemoveListener(this);
    }
  }

  std::string name() const override { return "blind-optimism"; }

  void AttachConnection(AppId app, Endpoint* endpoint) override {
    rtt_estimators_.try_emplace(endpoint->id(), config_);
    owner_[endpoint->id()] = app;
    endpoints_[endpoint->id()] = endpoint;
    endpoint->log().AddListener(this);
  }

  void DetachConnection(Endpoint* endpoint) override {
    endpoint->log().RemoveListener(this);
    rtt_estimators_.erase(endpoint->id());
    owner_.erase(endpoint->id());
    endpoints_.erase(endpoint->id());
  }

  double AvailabilityFor(AppId app, Time now) const override {
    (void)app;
    (void)now;
    return theoretical_bps_;
  }
  bool HasEstimate() const override { return informed_; }
  double TotalSupply(Time now) const override {
    (void)now;
    return theoretical_bps_;
  }

  Duration SmoothedRttFor(AppId app) const override {
    for (const auto& [connection, owner] : owner_) {
      if (owner == app) {
        const auto it = rtt_estimators_.find(connection);
        if (it != rtt_estimators_.end()) {
          return it->second.smoothed_rtt();
        }
      }
    }
    return 0;
  }

  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override {
    auto it = rtt_estimators_.find(connection);
    if (it != rtt_estimators_.end()) {
      it->second.OnRoundTrip(obs);
    }
  }

  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override {
    (void)connection;
    (void)obs;
  }

 private:
  EstimatorConfig config_;
  double theoretical_bps_ = 0.0;
  bool informed_ = false;
  std::map<ConnectionId, ConnectionEstimator> rtt_estimators_;
  std::map<ConnectionId, AppId> owner_;
  std::map<ConnectionId, Endpoint*> endpoints_;
};

// --- The churn sequence ---

constexpr int kConnections = 24;
constexpr AppId kApps = 6;
constexpr int kSteps = 600;

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// A strategy under test, its reference, and how often each said "changed".
struct Pair {
  BandwidthStrategy* table;
  BandwidthStrategy* reference;
  LogListener* table_listener;
  LogListener* reference_listener;
  int table_changes = 0;
  int reference_changes = 0;
};

void ExpectSameAnswers(const Pair& pair, Time now, const std::string& where) {
  EXPECT_EQ(pair.table->HasEstimate(), pair.reference->HasEstimate()) << where;
  EXPECT_EQ(Bits(pair.table->TotalSupply(now)), Bits(pair.reference->TotalSupply(now))) << where;
  // App 0 and one past the last app own nothing.
  for (AppId app = 0; app <= kApps + 1; ++app) {
    EXPECT_EQ(Bits(pair.table->AvailabilityFor(app, now)),
              Bits(pair.reference->AvailabilityFor(app, now)))
        << where << ", app " << app;
    EXPECT_EQ(pair.table->SmoothedRttFor(app), pair.reference->SmoothedRttFor(app))
        << where << ", app " << app;
  }
  EXPECT_EQ(pair.table_changes, pair.reference_changes) << where;
}

// Runs one seeded churn sequence over every pair.  Endpoints are declared
// by the caller before the strategies, so they outlive them.
void Churn(uint64_t seed, Simulation* sim, std::vector<std::unique_ptr<Endpoint>>* endpoints,
           std::vector<Pair>* pairs) {
  for (Pair& pair : *pairs) {
    pair.table->SetChangeCallback([&pair] { ++pair.table_changes; });
    pair.reference->SetChangeCallback([&pair] { ++pair.reference_changes; });
  }
  std::mt19937_64 rng(seed);
  std::vector<bool> attached(kConnections, false);
  for (int step = 0; step < kSteps; ++step) {
    const size_t index = rng() % kConnections;
    Endpoint* endpoint = (*endpoints)[index].get();
    const Time now = sim->now();
    switch (rng() % 6) {
      case 0: {
        // Attach (or re-attach, perhaps to another app) an unattached
        // connection; ids go in whatever order the draw gives.
        if (!attached[index]) {
          const AppId app = 1 + rng() % kApps;
          for (Pair& pair : *pairs) {
            pair.table->AttachConnection(app, endpoint);
            pair.reference->AttachConnection(app, endpoint);
          }
          attached[index] = true;
        }
        break;
      }
      case 1:
        if (attached[index]) {
          for (Pair& pair : *pairs) {
            pair.table->DetachConnection(endpoint);
            pair.reference->DetachConnection(endpoint);
          }
          attached[index] = false;
        }
        break;
      case 2:
        // Through the log: only subscribed strategies hear it.
        endpoint->log().RecordRoundTrip(now, static_cast<Duration>(1000 + rng() % 200000));
        break;
      case 3:
        endpoint->log().RecordThroughput(
            now, std::ldexp(static_cast<double>(1 + rng() % 4000000), -5),
            static_cast<Duration>(1000 + rng() % 3000000));
        break;
      case 4: {
        // Straight to the listeners, attached or not: a detached
        // connection's observation must change nothing.
        const RoundTripObservation rtt{now, static_cast<Duration>(1000 + rng() % 90000)};
        const ThroughputObservation window{now, 512.0 + static_cast<double>(rng() % 65536),
                                           static_cast<Duration>(1 + rng() % 2000000)};
        for (Pair& pair : *pairs) {
          pair.table_listener->OnRoundTrip(endpoint->id(), rtt);
          pair.reference_listener->OnRoundTrip(endpoint->id(), rtt);
          pair.table_listener->OnThroughput(endpoint->id(), window);
          pair.reference_listener->OnThroughput(endpoint->id(), window);
        }
        break;
      }
      default:
        // Time passes; the modulator's transitions reach blind optimism.
        sim->RunUntil(now + static_cast<Duration>(rng() % (4 * kSecond)));
        break;
    }
    for (const Pair& pair : *pairs) {
      ExpectSameAnswers(pair, sim->now(),
                        "seed " + std::to_string(seed) + " step " + std::to_string(step) + " (" +
                            pair.table->name() + ")");
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(StrategyChurnTest, TableStrategiesAnswerLikeTheMapWalk) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Simulation sim;
    Link link(&sim, 120.0 * 1024.0, 10500);
    std::vector<std::unique_ptr<Endpoint>> endpoints;  // outlive the strategies
    for (int i = 0; i < kConnections; ++i) {
      endpoints.push_back(std::make_unique<Endpoint>(&sim, &link, "svc:" + std::to_string(i)));
    }
    Modulator modulator(&sim, &link);
    ReplayTrace waveform;
    for (int i = 0; i < 40; ++i) {
      waveform.Append(kSecond + i * 37 * kMillisecond, 1024.0 * (10 + (i * 7) % 90) / 3.0, 10000);
    }
    LaissezFaireStrategy laissez;
    MapLaissezFaireStrategy laissez_reference;
    BlindOptimismStrategy blind(&modulator);
    MapBlindOptimismStrategy blind_reference(&modulator);
    modulator.Replay(waveform);
    std::vector<Pair> pairs = {{&laissez, &laissez_reference, &laissez, &laissez_reference},
                               {&blind, &blind_reference, &blind, &blind_reference}};
    Churn(seed, &sim, &endpoints, &pairs);
    if (HasFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace odyssey
