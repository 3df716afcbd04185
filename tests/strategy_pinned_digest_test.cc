// Pins what every builtin strategy does on a fixed fuzz batch, bit for bit.
//
// For each StrategyRegistry::Builtin() name, a fixed batch of generated
// scenarios (up to 64 apps, so many flows share each server) runs on the
// production single-node stack, on the reference stack (an injected naive
// supply model, whose inexact hints take the full scan) and on multi-node
// fleets.  Each run folds
// into one FNV-1a digest: every delivered upcall's app, seq, level bits and
// delivery time, the raw bits of every availability sample, and the run's
// counters.  The constants were recorded before the re-evaluation path
// learned to skip apps without windows and before the congestion manager
// memoized its per-server budgets, so any change to those paths that moves
// one upcall, level or sample fails here.

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/sim/random.h"
#include "src/strategies/strategy_registry.h"

namespace odyssey {
namespace {

constexpr int kSingleNodeRuns = 16;
constexpr int kFleetRuns = 8;

class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value_ = (value_ ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0xcbf29ce484222325ULL;
};

void AddRun(const FuzzScenario& scenario, bool reference, Fnv1a* digest) {
  DifferentialLog log;
  FuzzRunOptions options;
  options.differential = &log;
  options.reference_stack = reference;
  const FuzzRunResult result = RunFuzzScenario(scenario, options);
  for (const UpcallRecord& upcall : log.upcalls) {
    digest->Add(upcall.app);
    digest->Add(upcall.seq);
    digest->Add(upcall.level);
    digest->Add(static_cast<uint64_t>(upcall.delivered_at));
  }
  for (const double sample : log.samples) {
    digest->Add(sample);
  }
  digest->Add(result.violation_count);
  digest->Add(result.upcalls_delivered);
  digest->Add(result.requests_granted);
  digest->Add(result.requests_denied);
  digest->Add(result.admission_rejects);
  digest->Add(result.cancels_ok);
  digest->Add(result.tsops_issued);
  digest->Add(result.tie_pairs_audited);
  digest->Add(result.bytes_delivered);
}

// The first |count| scenarios |options| generates from |seed|'s stream,
// each pinned to |strategy|.  With |options.fleet| set only the multi-node
// draws are kept.
std::vector<FuzzScenario> Batch(const ScenarioOptions& options, uint64_t seed, int count,
                                const std::string& strategy) {
  std::vector<FuzzScenario> batch;
  SplitMix64 seeds(seed);
  while (static_cast<int>(batch.size()) < count) {
    FuzzScenario scenario = GenerateScenario(seeds.Next(), options);
    if ((scenario.fleet_nodes >= 2) == options.fleet) {
      scenario.strategy = strategy;
      batch.push_back(std::move(scenario));
    }
  }
  return batch;
}

uint64_t StrategyDigest(const std::string& strategy) {
  Fnv1a digest;
  ScenarioOptions single;
  single.max_apps = 64;
  single.mobility = true;
  for (const FuzzScenario& scenario : Batch(single, 2, kSingleNodeRuns, strategy)) {
    AddRun(scenario, /*reference=*/false, &digest);
    AddRun(scenario, /*reference=*/true, &digest);
  }
  ScenarioOptions fleet;
  fleet.max_apps = 64;
  fleet.fleet = true;
  for (const FuzzScenario& scenario : Batch(fleet, 25, kFleetRuns, strategy)) {
    AddRun(scenario, /*reference=*/false, &digest);
  }
  return digest.value();
}

TEST(StrategyPinnedDigestTest, EveryBuiltinStrategyMatchesItsPinnedDigest) {
  struct Pinned {
    const char* strategy;
    uint64_t digest;
  };
  const std::vector<Pinned> pinned = {
      {"odyssey", 0x33b0483846762a65ULL},
      {"laissez-faire", 0xffe33329ccb160cbULL},
      {"blind-optimism", 0xd0e211a0db9fdc50ULL},
      {"congestion-manager", 0x435be13dbbf86d39ULL},
      {"admission-broker", 0xa4e56922d619aa2bULL},
  };
  ASSERT_EQ(StrategyRegistry::Builtin().Names().size(), pinned.size());
  for (const Pinned& entry : pinned) {
    ASSERT_NE(StrategyRegistry::Builtin().Find(entry.strategy), nullptr) << entry.strategy;
    const uint64_t digest = StrategyDigest(entry.strategy);
    EXPECT_EQ(digest, entry.digest) << entry.strategy << ": 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace odyssey
