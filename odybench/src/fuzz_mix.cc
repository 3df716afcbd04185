// fuzz_mix: a fixed stream of short fuzz scenarios, run one after another.
//
// Set-up generates the batch with GenerateScenario (up to 64 apps, mobility
// waveforms and the strategy zoo on) from a fixed batch seed, so every run
// measures the same scenarios: with seed-drawn shapes, 400-run batches
// differed by 30-45% in cost from seed to seed, and about one scenario in
// 2000 trips the fuzz sweeps' known upcall-stranded violation, while the
// fixed batch runs clean.  The workload seed shuffles the order the
// scenarios run in.  The timed phase runs each scenario to completion with
// RunFuzzScenario, all oracles armed; a violation still counts as a failure.
// Thousands of short rigs put the weight on per-rig construction and
// teardown, all six wardens and servers, the fault and retry paths, the five
// strategies and the oracles, with no large table anywhere.

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/sim/random.h"
#include "src/workload.h"

namespace odybench {
namespace {

// Seeds the batch of scenarios; the same for every run.
constexpr uint64_t kBatchSeed = 7;

class FuzzMixTrial : public Trial {
 public:
  FuzzMixTrial(const FuzzMixParams& params, uint64_t seed, Ledger* ledger)
      : params_(params), seed_(seed), ledger_(ledger) {}

  void SetUp() override {
    odyssey::ScenarioOptions options;
    options.max_apps = 64;
    options.mobility = true;
    options.strategies = true;
    odyssey::SplitMix64 batch(kBatchSeed);
    scenarios_.reserve(static_cast<size_t>(params_.scenarios));
    for (int i = 0; i < params_.scenarios; ++i) {
      Scope scope(ledger_, Layer::kCheckGenerate);
      scenarios_.push_back(odyssey::GenerateScenario(batch.Next(), options));
    }
    // Fisher-Yates shuffle of the run order, drawn from the workload seed.
    odyssey::SplitMix64 order(seed_);
    for (size_t i = scenarios_.size(); i > 1; --i) {
      std::swap(scenarios_[i - 1], scenarios_[order.Next() % i]);
    }
  }

  void Run() override {
    odyssey::FuzzRunOptions options;
    odyssey::DifferentialLog log;
    options.differential = &log;
    step_s_.reserve(scenarios_.size());
    for (const odyssey::FuzzScenario& scenario : scenarios_) {
      log.upcalls.clear();
      log.samples.clear();
      const auto start = std::chrono::steady_clock::now();
      odyssey::FuzzRunResult result;
      {
        Scope scope(ledger_, Layer::kCheckRun);
        result = odyssey::RunFuzzScenario(scenario, options);
      }
      step_s_.push_back(SecondsSince(start));
      sim_seconds_ += odyssey::DurationToSeconds(scenario.horizon + options.drain_grace);
      for (const odyssey::UpcallRecord& upcall : log.upcalls) {
        digest_.Add(upcall.app);
        digest_.Add(upcall.seq);
        digest_.Add(upcall.level);
        digest_.Add(upcall.delivered_at);
      }
      digest_.Add(result.bytes_delivered);
      digest_.Add(result.upcalls_delivered);
      digest_.Add(result.requests_granted);
      digest_.Add(result.requests_denied);
      digest_.Add(result.cancels_ok);
      digest_.Add(result.tsops_issued);
      digest_.Add(result.violation_count);
      counts_.net_bytes += result.bytes_delivered;
      counts_.upcalls_delivered += result.upcalls_delivered;
      counts_.requests += result.requests_granted + result.requests_denied;
      counts_.registrations += result.requests_granted;
      counts_.cancels += result.cancels_ok;
      counts_.violations += result.violation_count;
      if (!result.ok()) {
        ++failed_;
      }
    }
  }

  TrialResult Result() override {
    TrialResult result;
    result.digest = digest_.value();
    result.sim_seconds = sim_seconds_;
    // Every delivered upcall reaches a fuzz driver whose handler
    // re-registers while its budget lasts.
    result.cycles = counts_.upcalls_delivered;
    result.attempted = scenarios_.size();
    result.failed = failed_;
    result.step_s = step_s_;
    for (const double s : step_s_) {
      result.run_ms.push_back(s * 1e3);
    }
    result.counts = counts_;
    return result;
  }

 private:
  const FuzzMixParams params_;
  const uint64_t seed_;
  Ledger* ledger_;
  std::vector<odyssey::FuzzScenario> scenarios_;
  std::vector<double> step_s_;
  Digest digest_;
  LayerCounts counts_;
  double sim_seconds_ = 0.0;
  uint64_t failed_ = 0;
};

}  // namespace

std::unique_ptr<Trial> MakeFuzzMixTrial(const FuzzMixParams& params, uint64_t seed,
                                        Ledger* ledger) {
  return std::make_unique<FuzzMixTrial>(params, seed, ledger);
}

}  // namespace odybench
