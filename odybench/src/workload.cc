#include "src/workload.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>

namespace odybench {
namespace {

std::unique_ptr<Trial> Storm10k(uint64_t seed, Ledger* ledger) {
  return MakeStormTrial(StormParams{}, seed, ledger);
}
std::unique_ptr<Trial> Stream(uint64_t seed, Ledger* ledger) {
  return MakeStreamTrial(seed, ledger);
}
std::unique_ptr<Trial> FuzzMix(uint64_t seed, Ledger* ledger) {
  return MakeFuzzMixTrial(FuzzMixParams{}, seed, ledger);
}

std::array<int64_t, kLayerCount> Minus(const std::array<int64_t, kLayerCount>& a,
                                       const std::array<int64_t, kLayerCount>& b) {
  std::array<int64_t, kLayerCount> out{};
  for (size_t i = 0; i < kLayerCount; ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

std::array<uint64_t, kLayerCount> Minus(const std::array<uint64_t, kLayerCount>& a,
                                        const std::array<uint64_t, kLayerCount>& b) {
  std::array<uint64_t, kLayerCount> out{};
  for (size_t i = 0; i < kLayerCount; ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"storm_10k", &Storm10k},
      {"stream_256", &Stream},
      {"fuzz_mix", &FuzzMix},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

TrialResult RunTrial(Trial* trial, Ledger* ledger) {
  std::array<int64_t, kLayerCount> self_before{};
  std::array<uint64_t, kLayerCount> calls_before{};
  const auto setup_start = std::chrono::steady_clock::now();
  trial->SetUp();
  const double setup_s = SecondsSince(setup_start);
  const double rss_after_setup_mb = CurrentRssMb();
  if (ledger != nullptr) {
    self_before = ledger->self_ns();
    calls_before = ledger->call_counts();
  }
  const auto run_start = std::chrono::steady_clock::now();
  {
    Scope root(ledger, Layer::kBench);
    trial->Run();
  }
  const double timed_s = SecondsSince(run_start);
  TrialResult result = trial->Result();
  result.setup_s = setup_s;
  result.timed_s = timed_s;
  result.rss_after_setup_mb = rss_after_setup_mb;
  if (ledger != nullptr) {
    result.self_ns = Minus(ledger->self_ns(), self_before);
    result.calls = Minus(ledger->call_counts(), calls_before);
  }
  return result;
}

double FastestTimedPhase(const std::vector<TrialResult>& trials) {
  std::vector<double> fastest = trials.front().step_s;
  double outside = trials.front().timed_s;
  for (const TrialResult& trial : trials) {
    const size_t steps = std::min(fastest.size(), trial.step_s.size());
    for (size_t i = 0; i < steps; ++i) {
      fastest[i] = std::min(fastest[i], trial.step_s[i]);
    }
    const double in_steps = std::accumulate(trial.step_s.begin(), trial.step_s.end(), 0.0);
    outside = std::min(outside, trial.timed_s - in_steps);
  }
  return std::accumulate(fastest.begin(), fastest.end(), 0.0) + std::max(outside, 0.0);
}

double FastestSetUp(const std::vector<TrialResult>& trials) {
  double fastest = trials.front().setup_s;
  for (const TrialResult& trial : trials) {
    fastest = std::min(fastest, trial.setup_s);
  }
  return fastest;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  if (!(statm >> pages >> resident)) {
    return 0.0;
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace odybench
