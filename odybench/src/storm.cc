// storm_10k: the viceroy hot core under an upcall storm.
//
// N apps each hold a [0.7x, 1.3x] window of tolerance on one connection.
// 64 hot connections receive synthetic observations straight into their
// logs, and a stepped supply waveform moves availability far outside every
// window at each step, so each step re-registers every window.  Beside the
// storm, a sweep cancels and re-registers 256 windows every 500 ms, so
// request-table writes run next to re-evaluation reads.  Link and RPC move
// no bytes; the cost is in the strategy, the viceroy, the request table,
// upcall dispatch and the oracles.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/viceroy.h"
#include "src/metrics/experiment.h"
#include "src/net/link.h"
#include "src/rig.h"
#include "src/rpc/endpoint.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/workload.h"

namespace odybench {
namespace {

using odyssey::AppId;
using odyssey::Duration;
using odyssey::kMillisecond;
using odyssey::Time;

// Per-hot-connection supply in KB/s: the warm-up level, then one level per
// step of the timed phase.  Every step moves availability outside every
// window.
constexpr double kWarmupKbps = 60.0;
constexpr double kStepKbps[] = {200.0, 30.0, 120.0};
constexpr Duration kWarmup = 500 * kMillisecond;
constexpr Duration kStep = 500 * kMillisecond;
constexpr Duration kHorizon = kWarmup + static_cast<Duration>(std::size(kStepKbps)) * kStep;
constexpr Duration kDrain = 200 * kMillisecond;
constexpr Duration kFeedPeriod = 50 * kMillisecond;
constexpr Duration kCancelSweepPeriod = 500 * kMillisecond;
constexpr Duration kOraclePeriod = 100 * kMillisecond;
// Apps holding a second, idle connection, so more than one connection-count
// class of the request table is live.
constexpr int kMultiConnectionApps = 8;

double LevelKbps(Time now) {
  if (now < kWarmup) {
    return kWarmupKbps;
  }
  const auto index = static_cast<size_t>((now - kWarmup) / kStep);
  return kStepKbps[std::min(index, std::size(kStepKbps) - 1)];
}

// The waveform as the oracles' byte-conservation bound sees it.
odyssey::FuzzScenario OracleScenario(const StormParams& params, uint64_t seed) {
  odyssey::FuzzScenario scenario;
  scenario.seed = seed;
  scenario.horizon = kHorizon;
  const double hot = static_cast<double>(params.hot_connections);
  scenario.segments.push_back({kWarmup, kWarmupKbps * 1024.0 * hot, 10 * kMillisecond});
  for (const double kbps : kStepKbps) {
    scenario.segments.push_back({kStep, kbps * 1024.0 * hot, 10 * kMillisecond});
  }
  return scenario;
}

class StormTrial : public Trial {
 public:
  StormTrial(const StormParams& params, uint64_t seed, Ledger* ledger)
      : params_(params),
        ledger_(ledger),
        scenario_(OracleScenario(params, seed)),
        sim_(seed),
        link_(&sim_, scenario_.segments.front().bandwidth_bps, 10 * kMillisecond),
        viceroy_(&sim_, MakeStrategy(&sim_, ledger), odyssey::kUpcallLatency),
        oracle_(scenario_, &sim_, &viceroy_, viceroy_.strategy().audit_surface(), &link_),
        hooks_(&sim_, &viceroy_.upcalls(), &oracle_, ledger),
        loop_(&viceroy_, &oracle_, ledger) {
    oracle_.set_max_audited_connections(params.max_audited_connections);
  }

  void SetUp() override {
    odyssey::Rng rng(sim_.rng().NextU64());
    const int hot = std::min(params_.hot_connections, params_.apps);
    for (int i = 0; i < hot; ++i) {
      weights_.push_back(rng.Uniform(0.5, 1.5));
    }
    auto start = std::chrono::steady_clock::now();
    {
      Scope scope(ledger_, Layer::kSetupRegister);
      apps_.reserve(static_cast<size_t>(params_.apps));
      endpoints_.reserve(static_cast<size_t>(params_.apps));
      for (int i = 0; i < params_.apps; ++i) {
        apps_.push_back(viceroy_.RegisterApplication("storm" + std::to_string(i)));
        endpoints_.push_back(std::make_unique<odyssey::Endpoint>(&sim_, &link_, "server"));
        viceroy_.AttachConnection(apps_.back(), endpoints_.back().get());
      }
      for (int i = 0; i < std::min(kMultiConnectionApps, params_.apps); ++i) {
        extra_endpoints_.push_back(std::make_unique<odyssey::Endpoint>(&sim_, &link_, "server2"));
        viceroy_.AttachConnection(apps_[i], extra_endpoints_.back().get());
      }
    }
    register_s_ = SecondsSince(start);
    // Warm-up: the hot connections report at the first level until the
    // estimator has settled, before any window exists.
    sim_.Post(kFeedPeriod, [this] { Feed(); });
    sim_.RunUntil(kWarmup - 1);
    start = std::chrono::steady_clock::now();
    {
      Scope scope(ledger_, Layer::kSetupRegister);
      for (const AppId app : apps_) {
        loop_.Start(app);
      }
    }
    register_s_ += SecondsSince(start);
  }

  void Run() override {
    at_start_ = Read();
    run_start_ = sim_.now();
    sim_.Post(kOraclePeriod, [this] { SampleOracle(); });
    sim_.Post(kCancelSweepPeriod, [this] { CancelSweep(); });
    Drive(&sim_, link_, kHorizon + kDrain, kFeedPeriod, ledger_, &steps_);
    Scope scope(ledger_, Layer::kCheckOracle);
    oracle_.Finish();
  }

  TrialResult Result() override {
    const LayerCounts lifetime = Read();
    TrialResult result;
    result.counts = Subtract(lifetime, at_start_);
    result.digest = RigDigest(hooks_, lifetime, loop_.cycles());
    result.sim_seconds = odyssey::DurationToSeconds(sim_.now() - run_start_);
    result.cycles = loop_.cycles();
    result.attempted = loop_.attempted();
    result.failed = loop_.exhausted() + lifetime.violations;
    result.register_s = register_s_;
    result.step_s = steps_.host_s;
    return result;
  }

 private:
  LayerCounts Read() { return ReadCounts(sim_, link_, &viceroy_, loop_, oracle_, hooks_, steps_); }

  // Synthetic passive observations: each hot connection reports one window
  // per feed period at its share of the waveform, with a round trip every
  // tenth tick.
  void Feed() {
    const Time now = sim_.now();
    if (now >= kHorizon) {
      return;
    }
    const double rate = LevelKbps(now) * 1024.0;
    const double period_s = odyssey::DurationToSeconds(kFeedPeriod);
    for (size_t i = 0; i < weights_.size(); ++i) {
      odyssey::ObservationLog& log = endpoints_[i]->log();
      log.RecordThroughput(now, rate * weights_[i] * period_s, kFeedPeriod);
      if (tick_ % 10 == i % 10) {
        log.RecordRoundTrip(now, 10 * kMillisecond + static_cast<Duration>(i) * 100);
      }
    }
    ++tick_;
    sim_.Post(kFeedPeriod, [this] { Feed(); });
  }

  void SampleOracle() {
    if (sim_.now() > kHorizon) {
      return;
    }
    {
      Scope scope(ledger_, Layer::kCheckOracle);
      oracle_.Sample();
    }
    sim_.Post(kOraclePeriod, [this] { SampleOracle(); });
  }

  // Rotates through the apps recycling their windows, so request-table
  // slots are freed and reused throughout the run.
  void CancelSweep() {
    if (sim_.now() >= kHorizon) {
      return;
    }
    const size_t sweep = std::min(static_cast<size_t>(params_.cancel_sweep), apps_.size());
    for (size_t i = 0; i < sweep; ++i) {
      loop_.Recycle(apps_[cancel_cursor_++ % apps_.size()]);
    }
    sim_.Post(kCancelSweepPeriod, [this] { CancelSweep(); });
  }

  const StormParams params_;
  Ledger* ledger_;
  const odyssey::FuzzScenario scenario_;
  odyssey::Simulation sim_;
  odyssey::Link link_;
  // Endpoints are declared before the viceroy so they outlive the strategy,
  // whose destructor unsubscribes from their logs.
  std::vector<std::unique_ptr<odyssey::Endpoint>> endpoints_;
  std::vector<std::unique_ptr<odyssey::Endpoint>> extra_endpoints_;
  odyssey::Viceroy viceroy_;
  odyssey::OracleSet oracle_;
  OracleHooks hooks_;
  WindowLoop loop_;
  std::vector<AppId> apps_;
  std::vector<double> weights_;
  StepSamples steps_;
  LayerCounts at_start_;
  uint64_t tick_ = 0;
  size_t cancel_cursor_ = 0;
  double register_s_ = 0.0;
  Time run_start_ = 0;
};

}  // namespace

std::unique_ptr<Trial> MakeStormTrial(const StormParams& params, uint64_t seed, Ledger* ledger) {
  return std::make_unique<StormTrial>(params, seed, ledger);
}

}  // namespace odybench
