// stream_256: greedy bitstream clients moving real bytes through the stack.
//
// 256 bitstream apps share one OdysseyClient and one link.  Each streams in
// 8 KB windows as fast as the link allows and holds a [0.7x, 1.3x] window of
// tolerance on its bandwidth, re-registered from its upcall handler (the
// §4.2 adaptive loop).  The link replays the urban waveform of Figure 13
// with its high level scaled x100, its low level 2.5 times lower, and each
// minute compressed to 2 s, so eight transitions fall inside one trial.
// Every segment outlasts the estimator's 2 s supply window, so each
// transition settles; and 2.5 lies well between powers of 1.3 (and 1/2.5
// between powers of 0.7), so the number of windows a settled transition
// crosses does not hinge on the seed's jitter.  Bytes cross sim -> net -> rpc -> estimator; every observation makes the
// viceroy re-evaluate the live apps.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/bitstream_app.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/odyssey_client.h"
#include "src/metrics/experiment.h"
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/rig.h"
#include "src/sim/simulation.h"
#include "src/tracemod/waveforms.h"
#include "src/wardens/bitstream_warden.h"
#include "src/workload.h"

namespace odybench {
namespace {

using odyssey::Duration;
using odyssey::kMillisecond;
using odyssey::kSecond;
using odyssey::Time;

constexpr int kClients = 256;
constexpr double kBandwidthScale = 100.0;
// Virtual length of one minute of the urban waveform.
constexpr Duration kCompressedMinute = 2 * kSecond;
constexpr double kWindowBytes = 8.0 * 1024.0;
// Streaming before the first windows register, so they center on a real
// estimate.
constexpr Duration kWarmup = 1 * kSecond;
// After the waveform ends: apps stop and in-flight windows and upcalls drain.
constexpr Duration kDrain = 500 * kMillisecond;
constexpr Duration kRunStep = 50 * kMillisecond;
constexpr Duration kOraclePeriod = 100 * kMillisecond;

odyssey::ReplayTrace StreamWaveform() {
  odyssey::WaveformParams params;
  params.high_bps *= kBandwidthScale;
  params.low_bps = params.high_bps / 2.5;
  const odyssey::ReplayTrace urban = odyssey::MakeUrbanScenario(params);
  odyssey::ReplayTrace compressed;
  for (const odyssey::TraceSegment& segment : urban.segments()) {
    compressed.Append(segment.duration / odyssey::kMinute * kCompressedMinute,
                      segment.bandwidth_bps, segment.latency);
  }
  return compressed.WithPriming(kWarmup);
}

odyssey::FuzzScenario OracleScenario(const odyssey::ReplayTrace& trace, uint64_t seed) {
  odyssey::FuzzScenario scenario;
  scenario.seed = seed;
  scenario.horizon = trace.TotalDuration();
  for (const odyssey::TraceSegment& segment : trace.segments()) {
    scenario.segments.push_back({segment.duration, segment.bandwidth_bps, segment.latency});
  }
  return scenario;
}

class StreamTrial : public Trial {
 public:
  StreamTrial(uint64_t seed, Ledger* ledger)
      : ledger_(ledger),
        trace_(StreamWaveform()),
        scenario_(OracleScenario(trace_, seed)),
        sim_(seed),
        link_(&sim_, trace_.segments().front().bandwidth_bps, trace_.segments().front().latency),
        modulator_(&sim_, &link_),
        client_(&sim_, &link_, MakeStrategy(&sim_, ledger), odyssey::kUpcallLatency),
        oracle_(scenario_, &sim_, &client_.viceroy(),
                client_.viceroy().strategy().audit_surface(), &link_),
        hooks_(&sim_, &client_.viceroy().upcalls(), &oracle_, ledger),
        loop_(&client_.viceroy(), &oracle_, ledger) {
    client_.InstallWarden(std::make_unique<odyssey::BitstreamWarden>());
  }

  void SetUp() override {
    modulator_.Replay(trace_);
    sim_.Post(kOraclePeriod, [this] { SampleOracle(); });
    auto start = std::chrono::steady_clock::now();
    {
      Scope scope(ledger_, Layer::kSetupRegister);
      for (int i = 0; i < kClients; ++i) {
        apps_.push_back(
            std::make_unique<odyssey::BitstreamApp>(&client_, "bitstream" + std::to_string(i)));
        apps_.back()->Start(0.0, kWindowBytes);
      }
    }
    register_s_ = SecondsSince(start);
    sim_.RunUntil(kWarmup);
    start = std::chrono::steady_clock::now();
    {
      Scope scope(ledger_, Layer::kSetupRegister);
      for (const auto& app : apps_) {
        loop_.Start(app->app());
      }
    }
    register_s_ += SecondsSince(start);
  }

  void Run() override {
    at_start_ = Read();
    run_start_ = sim_.now();
    const Time horizon = trace_.TotalDuration();
    Drive(&sim_, link_, horizon, kRunStep, ledger_, &steps_);
    loop_.Stop();
    for (const auto& app : apps_) {
      app->Stop();
    }
    Drive(&sim_, link_, horizon + kDrain, kRunStep, ledger_, &steps_);
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
  LayerCounts Read() {
    return ReadCounts(sim_, link_, &client_.viceroy(), loop_, oracle_, hooks_, steps_);
  }

  void SampleOracle() {
    if (sim_.now() > trace_.TotalDuration()) {
      return;
    }
    {
      Scope scope(ledger_, Layer::kCheckOracle);
      oracle_.Sample();
    }
    sim_.Post(kOraclePeriod, [this] { SampleOracle(); });
  }

  Ledger* ledger_;
  const odyssey::ReplayTrace trace_;
  const odyssey::FuzzScenario scenario_;
  odyssey::Simulation sim_;
  odyssey::Link link_;
  odyssey::Modulator modulator_;
  odyssey::OdysseyClient client_;
  odyssey::OracleSet oracle_;
  OracleHooks hooks_;
  WindowLoop loop_;
  std::vector<std::unique_ptr<odyssey::BitstreamApp>> apps_;
  StepSamples steps_;
  LayerCounts at_start_;
  double register_s_ = 0.0;
  Time run_start_ = 0;
};

}  // namespace

std::unique_ptr<Trial> MakeStreamTrial(uint64_t seed, Ledger* ledger) {
  return std::make_unique<StreamTrial>(seed, ledger);
}

}  // namespace odybench
