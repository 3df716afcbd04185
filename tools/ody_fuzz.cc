// ody_fuzz: the deterministic simulation fuzzer's command-line driver.
//
// Usage:
//   ody_fuzz --runs=N [--jobs=M] [--seed=U64] [--max-apps=N] [--mobility]
//            [--fleet] [--strategy=NAME|random] [--selftest-mutation]
//            [--selftest-tiebreak] [--no-shrink] [--repro-out=PATH]
//            [--trace-out=PATH] [--verbose]
//
// Synthesizes N scenarios from a single campaign seed (trial seeds derived
// with the same O(1) stream jump the bench campaigns use), executes each
// against a fresh Odyssey stack under the invariant oracles, and reports
// every violation.  --max-apps raises the scenario generator's population
// bound (log-uniform above the default 8; see ScenarioOptions), and
// --mobility arms the scenario generator's mobility dimension (about half
// the runs take a motion-generated waveform from src/mobility), and --fleet
// arms the fleet dimension (about half the runs become 2-8 client nodes
// sharing 1-2 server groups through the estimate-aggregation protocol;
// RunFuzzScenario builds their fleet rig with the fleet oracles armed, so
// single-node and fleet runs go through one runner).  --strategy=random
// arms the strategy dimension (every scenario draws its bandwidth strategy
// from the builtin StrategyRegistry); --strategy=NAME pins every scenario
// to one registered strategy instead.  Output is
// a pure function of (--runs, --seed, --max-apps, --mobility, --fleet,
// --strategy, --selftest-mutation,
// --selftest-tiebreak): --jobs only changes wall-clock time, never a byte
// of stdout or the artifacts — results land in per-run slots and are
// printed in plan order after the pool drains.
//
// On failure the first failing scenario, single-node or fleet, is shrunk to
// a minimal reproducer (greedy delta debugging over the scenario
// description); the reproducer is written as a self-contained C++ test
// snippet to --repro-out and its canonicalized trace to --trace-out, and
// the exit code is 1.
//
// --selftest-mutation requires a build with -DODYSSEY_FUZZ_SELFTEST=ON; it
// makes the runner observe node 0's second upcall of every app twice (on
// single-node and fleet runs alike), so CI can prove the upcall-duplicate
// oracle and the shrinker work end to end.
// --selftest-tiebreak (same build requirement) instead removes the event
// queue's deterministic FIFO tie-break, which the same-time-order oracle
// must catch.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/check/shrink.h"
#include "src/harness/campaign.h"
#include "src/harness/decimal.h"
#include "src/harness/worker_pool.h"
#include "src/strategies/strategy_registry.h"

namespace {

using odyssey::DeriveTrialSeed;
using odyssey::FlagValue;
using odyssey::FormatViolations;
using odyssey::FuzzRunOptions;
using odyssey::FuzzRunResult;
using odyssey::FuzzScenario;
using odyssey::GenerateScenario;
using odyssey::ParseDecimalU64;
using odyssey::RunFuzzScenario;
using odyssey::ShrinkFailingScenario;
using odyssey::ShrinkResult;

struct Options {
  int runs = 50;
  int jobs = odyssey::DefaultJobCount();
  uint64_t seed = 1;
  // ScenarioOptions::max_apps: at the default 8 scenarios are byte-identical
  // to the historical generator; larger values sweep large-N populations.
  int max_apps = 8;
  // ScenarioOptions::mobility: arms the motion-generated waveform dimension.
  bool mobility = false;
  // ScenarioOptions::fleet: arms the multi-node fleet dimension.
  bool fleet = false;
  // Strategy dimension: "random" arms ScenarioOptions::strategies; any
  // other non-empty value pins every scenario to that registry name.
  std::string strategy;
  bool selftest_mutation = false;
  bool selftest_tiebreak = false;
  bool shrink = true;
  bool verbose = false;
  std::string repro_out = "fuzz_repro.cc";
  std::string trace_out = "fuzz_trace.txt";
};

bool ParseInt(const std::string& text, int* out) {
  uint64_t value = 0;
  if (!ParseDecimalU64(text, &value) || value > 1u << 20) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ody_fuzz --runs=N [--jobs=M] [--seed=U64] [--max-apps=N] [--mobility]\n"
               "                [--fleet] [--strategy=NAME|random] [--selftest-mutation]\n"
               "                [--selftest-tiebreak] [--no-shrink] [--repro-out=PATH]\n"
               "                [--trace-out=PATH] [--verbose]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (FlagValue(arg, "runs", &value)) {
      if (!ParseInt(value, &options->runs) || options->runs <= 0) {
        return false;
      }
    } else if (FlagValue(arg, "jobs", &value)) {
      if (!ParseInt(value, &options->jobs) || options->jobs <= 0) {
        return false;
      }
    } else if (FlagValue(arg, "seed", &value)) {
      if (!ParseDecimalU64(value, &options->seed)) {
        return false;
      }
    } else if (FlagValue(arg, "max-apps", &value)) {
      if (!ParseInt(value, &options->max_apps) || options->max_apps <= 0) {
        return false;
      }
    } else if (FlagValue(arg, "strategy", &value)) {
      options->strategy = value;
    } else if (FlagValue(arg, "repro-out", &value)) {
      options->repro_out = value;
    } else if (FlagValue(arg, "trace-out", &value)) {
      options->trace_out = value;
    } else if (arg == "--mobility") {
      options->mobility = true;
    } else if (arg == "--fleet") {
      options->fleet = true;
    } else if (arg == "--selftest-mutation") {
      options->selftest_mutation = true;
    } else if (arg == "--selftest-tiebreak") {
      options->selftest_tiebreak = true;
    } else if (arg == "--no-shrink") {
      options->shrink = false;
    } else if (arg == "--verbose") {
      options->verbose = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    return Usage();
  }
  if ((options.selftest_mutation || options.selftest_tiebreak) &&
      !odyssey::kFuzzSelftestCompiled) {
    std::fprintf(stderr,
                 "ody_fuzz: --selftest-mutation/--selftest-tiebreak need a "
                 "-DODYSSEY_FUZZ_SELFTEST=ON build\n");
    return 2;
  }

  FuzzRunOptions run_options;
  run_options.selftest_mutation = options.selftest_mutation;
  run_options.selftest_tiebreak = options.selftest_tiebreak;
  odyssey::ScenarioOptions scenario_options;
  scenario_options.max_apps = options.max_apps;
  scenario_options.mobility = options.mobility;
  scenario_options.fleet = options.fleet;
  const bool random_strategy = options.strategy == "random";
  scenario_options.strategies = random_strategy;
  const std::string pinned_strategy = random_strategy ? std::string() : options.strategy;
  if (!pinned_strategy.empty() &&
      odyssey::StrategyRegistry::Builtin().Find(pinned_strategy) == nullptr) {
    std::fprintf(stderr, "ody_fuzz: unknown --strategy \"%s\" (registered:", pinned_strategy.c_str());
    for (const std::string& name : odyssey::StrategyRegistry::Builtin().Names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  // Parallel execution: every run writes only its own slot, so the report
  // below is independent of worker count and completion order.
  const auto count = static_cast<size_t>(options.runs);
  std::vector<FuzzRunResult> results(count);
  std::vector<uint64_t> seeds(count);
  for (size_t i = 0; i < count; ++i) {
    seeds[i] = DeriveTrialSeed(options.seed, static_cast<uint64_t>(i));
  }
  // A pinned strategy overrides the generated scenario after synthesis, so
  // the rest of the description stays byte-identical to the unpinned run.
  const auto generate = [&scenario_options, &pinned_strategy](uint64_t seed) {
    FuzzScenario scenario = GenerateScenario(seed, scenario_options);
    if (!pinned_strategy.empty()) {
      scenario.strategy = pinned_strategy;
    }
    return scenario;
  };
  odyssey::RunIndexedTasks(options.jobs, count,
                           [&](size_t i) { results[i] = RunFuzzScenario(generate(seeds[i]), run_options); });

  std::printf("ody_fuzz: %d runs, seed %llu, max apps %d%s%s%s%s%s%s\n", options.runs,
              static_cast<unsigned long long>(options.seed), options.max_apps,
              options.mobility ? ", mobility dimension on" : "",
              options.fleet ? ", fleet dimension on" : "",
              random_strategy ? ", strategy dimension on" : "",
              pinned_strategy.empty() ? "" : (", strategy " + pinned_strategy).c_str(),
              options.selftest_mutation ? ", selftest mutation armed" : "",
              options.selftest_tiebreak ? ", selftest tiebreak armed" : "");

  uint64_t total_violations = 0;
  uint64_t total_upcalls = 0;
  uint64_t total_requests = 0;
  uint64_t total_tsops = 0;
  uint64_t total_tie_pairs = 0;
  size_t failing_runs = 0;
  size_t first_failure = count;
  for (size_t i = 0; i < count; ++i) {
    const FuzzRunResult& result = results[i];
    total_violations += result.violation_count;
    total_upcalls += result.upcalls_delivered;
    total_requests += result.requests_granted;
    total_tsops += result.tsops_issued;
    total_tie_pairs += result.tie_pairs_audited;
    if (!result.ok()) {
      ++failing_runs;
      if (first_failure == count) {
        first_failure = i;
      }
      std::printf("run %zu seed %llu: %llu violations\n%s", i,
                  static_cast<unsigned long long>(seeds[i]),
                  static_cast<unsigned long long>(result.violation_count),
                  FormatViolations(result.violations).c_str());
    } else if (options.verbose) {
      std::printf("run %zu seed %llu: ok (%llu upcalls, %llu requests, %llu tsops)\n", i,
                  static_cast<unsigned long long>(seeds[i]),
                  static_cast<unsigned long long>(result.upcalls_delivered),
                  static_cast<unsigned long long>(result.requests_granted),
                  static_cast<unsigned long long>(result.tsops_issued));
    }
  }
  std::printf(
      "totals: %llu violations in %zu/%zu runs (%llu upcalls, %llu requests, %llu tsops, "
      "%llu tie pairs audited)\n",
      static_cast<unsigned long long>(total_violations), failing_runs, count,
      static_cast<unsigned long long>(total_upcalls),
      static_cast<unsigned long long>(total_requests),
      static_cast<unsigned long long>(total_tsops),
      static_cast<unsigned long long>(total_tie_pairs));

  if (failing_runs == 0) {
    return 0;
  }

  if (options.shrink) {
    const FuzzScenario failing = generate(seeds[first_failure]);
    const std::string oracle = results[first_failure].violations.empty()
                                   ? std::string()
                                   : results[first_failure].violations.front().oracle;
    std::printf("shrinking run %zu (oracle \"%s\", %zu elements)...\n", first_failure,
                oracle.c_str(), failing.ElementCount());
    const ShrinkResult shrunk = ShrinkFailingScenario(failing, oracle, run_options);
    std::printf("shrink: minimized to %zu elements (from %zu) in %d rounds, %d attempts\n",
                shrunk.final_elements, shrunk.initial_elements, shrunk.rounds,
                shrunk.attempts);
    std::printf("%s", shrunk.minimized.Describe().c_str());
    if (odyssey::WriteFile(options.repro_out,
                           odyssey::EmitReproSnippet(shrunk.minimized, oracle))) {
      std::printf("repro snippet: %s\n", options.repro_out.c_str());
    } else {
      std::fprintf(stderr, "ody_fuzz: cannot write %s\n", options.repro_out.c_str());
    }
    if (odyssey::WriteFile(options.trace_out,
                           odyssey::CanonicalTraceForScenario(shrunk.minimized, run_options))) {
      std::printf("canonical trace: %s\n", options.trace_out.c_str());
    } else {
      std::fprintf(stderr, "ody_fuzz: cannot write %s\n", options.trace_out.c_str());
    }
  }
  return 1;
}
