// Self-tests for the benchmark's own machinery: the percentile rule, the
// ledger's self-time arithmetic, the fastest-step timing, the tracing
// decorator's transparency, and failure accounting.  Exits non-zero if any check fails.
//
//   .bench_build/odybench_selftest

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/ledger.h"
#include "src/workload.h"

namespace odybench {
namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void PercentileRule() {
  // p99 needs ten samples beyond its rank: 1000 samples, not 999.
  CHECK(PercentileReportable(1000, 0.99));
  CHECK(!PercentileReportable(999, 0.99));
  CHECK(PercentileReportable(20, 0.5));
  CHECK(!PercentileReportable(19, 0.5));
  CHECK(!PercentileReportable(0, 0.5));

  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) {
    samples.push_back(static_cast<double>(i));
  }
  CHECK(Percentile(samples, 0.99) == 990.0);
  CHECK(Percentile(samples, 0.5) == 500.0);
  CHECK(Percentile({7.0}, 0.99) == 7.0);
  CHECK(Percentile({}, 0.5) == 0.0);
}

void SelfTimeArithmetic() {
  // bench [0, 100] > sim [10, 80] > { strategy [20, 30], reeval [40, 70] >
  // strategy [45, 50] }, then check.oracle [85, 95] directly under bench.
  Ledger ledger;
  ledger.Begin(Layer::kBench, 0, 0);
  ledger.Begin(Layer::kSim, 0, 10);
  ledger.Begin(Layer::kStrategy, 7, 20);
  ledger.End(30);
  ledger.Begin(Layer::kViceroyReeval, 0, 40);
  ledger.Begin(Layer::kStrategy, 7, 45);
  ledger.End(50);
  ledger.End(70);
  ledger.End(80);
  ledger.Begin(Layer::kCheckOracle, 7, 85);
  ledger.End(95);
  ledger.End(100);

  CHECK(ledger.open_depth() == 0);
  CHECK(ledger.self_ns()[static_cast<size_t>(Layer::kBench)] == 100 - 70 - 10);
  CHECK(ledger.self_ns()[static_cast<size_t>(Layer::kSim)] == 70 - 10 - 30);
  CHECK(ledger.self_ns()[static_cast<size_t>(Layer::kStrategy)] == 10 + 5);
  CHECK(ledger.self_ns()[static_cast<size_t>(Layer::kViceroyReeval)] == 30 - 5);
  CHECK(ledger.self_ns()[static_cast<size_t>(Layer::kCheckOracle)] == 10);
  CHECK(ledger.calls(Layer::kStrategy) == 2);
  // Self times add up to the root span exactly.
  int64_t total = 0;
  for (const int64_t ns : ledger.self_ns()) {
    total += ns;
  }
  CHECK(total == 100);
  // The offline computation from the kept spans agrees with the ledger.
  CHECK(ledger.spans().size() == 6);
  CHECK(SelfTimes(ledger.spans()) == ledger.self_ns());
  CHECK(ledger.spans()[2].parent == 1);
  CHECK(ledger.spans()[4].parent == 3);
  CHECK(ledger.spans()[4].app == 7);

  // Past the cap spans are dropped from memory but still counted.
  Ledger capped(2);
  capped.Begin(Layer::kBench, 0, 0);
  capped.Begin(Layer::kSim, 0, 1);
  capped.Begin(Layer::kStrategy, 0, 2);
  capped.End(3);
  capped.End(4);
  capped.End(5);
  CHECK(capped.spans().size() == 2);
  CHECK(capped.dropped_spans() == 1);
  CHECK(capped.self_ns()[static_cast<size_t>(Layer::kStrategy)] == 1);
  CHECK(capped.self_ns()[static_cast<size_t>(Layer::kSim)] == 2);
}

void FastestSteps() {
  // Steps {3, 1} of a 5 s phase and {1, 2} of a 4 s one: 1 s outside the
  // steps in each, so the fastest phase is 1 + 1 + 1.
  TrialResult slow_first;
  slow_first.step_s = {3.0, 1.0};
  slow_first.timed_s = 5.0;
  slow_first.setup_s = 0.5;
  TrialResult slow_second;
  slow_second.step_s = {1.0, 2.0};
  slow_second.timed_s = 4.0;
  slow_second.setup_s = 0.25;
  CHECK(FastestTimedPhase({slow_first, slow_second}) == 3.0);
  CHECK(FastestTimedPhase({slow_first}) == 5.0);
  CHECK(FastestSetUp({slow_first, slow_second}) == 0.25);

  // A real trial's steps cover its timed phase, and repetitions take the
  // same steps.
  StormParams params;
  params.apps = 500;
  params.hot_connections = 8;
  std::vector<TrialResult> trials;
  for (int i = 0; i < 2; ++i) {
    std::unique_ptr<Trial> trial = MakeStormTrial(params, 5, nullptr);
    trials.push_back(RunTrial(trial.get(), nullptr));
  }
  CHECK(!trials[0].step_s.empty());
  CHECK(trials[0].step_s.size() == trials[1].step_s.size());
  const double fastest = FastestTimedPhase(trials);
  CHECK(fastest > 0.0);
  CHECK(fastest <= std::min(trials[0].timed_s, trials[1].timed_s));
}

void DecoratorTransparency() {
  StormParams params;
  params.apps = 2000;
  params.hot_connections = 16;
  params.cancel_sweep = 64;
  params.max_audited_connections = 0;

  std::unique_ptr<Trial> plain = MakeStormTrial(params, 3, nullptr);
  const TrialResult untraced = RunTrial(plain.get(), nullptr);
  plain.reset();
  Ledger ledger;
  std::unique_ptr<Trial> decorated = MakeStormTrial(params, 3, &ledger);
  const TrialResult traced = RunTrial(decorated.get(), &ledger);
  decorated.reset();

  CHECK(untraced.cycles > static_cast<uint64_t>(params.apps));
  CHECK(untraced.digest == traced.digest);
  CHECK(untraced.cycles == traced.cycles);
  CHECK(untraced.counts.scan_ops == traced.counts.scan_ops);
  CHECK(untraced.counts.upcalls_delivered == traced.counts.upcalls_delivered);
  // The decorator saw the strategy queries and the observations.
  CHECK(traced.calls[static_cast<size_t>(Layer::kStrategy)] > 0);
  CHECK(traced.calls[static_cast<size_t>(Layer::kRpcObserve)] > 0);
  CHECK(traced.calls[static_cast<size_t>(Layer::kViceroyReeval)] > 0);
  CHECK(ledger.open_depth() == 0);

  // A different seed is a different input.
  std::unique_ptr<Trial> other = MakeStormTrial(params, 4, nullptr);
  CHECK(RunTrial(other.get(), nullptr).digest != untraced.digest);
}

void FailureAccounting() {
  // Storm and stream count registrations; every one either registers or
  // fails, and oracle violations add to the failures.
  StormParams storm;
  storm.apps = 500;
  storm.hot_connections = 8;
  std::unique_ptr<Trial> trial = MakeStormTrial(storm, 5, nullptr);
  const TrialResult result = RunTrial(trial.get(), nullptr);
  CHECK(result.failed == 0);
  CHECK(result.counts.violations == 0);
  // Set-up registers one window per app; each timed-phase registration is a
  // cycle or a cancel-sweep re-registration.
  CHECK(result.attempted ==
        static_cast<uint64_t>(storm.apps) + result.counts.registrations);
  CHECK(result.counts.requests >= result.counts.registrations);

  // fuzz_mix counts scenarios: attempted is the batch size, failed the runs
  // with any oracle violation.
  FuzzMixParams fuzz;
  fuzz.scenarios = 20;
  std::unique_ptr<Trial> mix = MakeFuzzMixTrial(fuzz, 7, nullptr);
  const TrialResult mixed = RunTrial(mix.get(), nullptr);
  CHECK(mixed.attempted == 20);
  CHECK(mixed.run_ms.size() == 20);
  CHECK(mixed.step_s.size() == 20);
  CHECK(mixed.failed <= mixed.attempted);
  CHECK((mixed.failed == 0) == (mixed.counts.violations == 0));
  // Another seed runs the same scenarios in another order.
  std::unique_ptr<Trial> shuffled = MakeFuzzMixTrial(fuzz, 8, nullptr);
  const TrialResult reordered = RunTrial(shuffled.get(), nullptr);
  CHECK(reordered.digest != mixed.digest);
  CHECK(reordered.cycles == mixed.cycles);
  CHECK(reordered.counts.requests == mixed.counts.requests);
  CHECK(reordered.failed == mixed.failed);
}

}  // namespace
}  // namespace odybench

int main() {
  odybench::PercentileRule();
  odybench::SelfTimeArithmetic();
  odybench::FastestSteps();
  odybench::DecoratorTransparency();
  odybench::FailureAccounting();
  if (odybench::failures != 0) {
    std::fprintf(stderr, "odybench_selftest: %d check(s) failed\n", odybench::failures);
    return 1;
  }
  std::printf("odybench_selftest: all checks passed\n");
  return 0;
}
