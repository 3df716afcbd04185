// Golden-trace determinism regression (see DESIGN.md §9).
//
// Runs the fig08_supply_agility/step_up variant from the builtin scenario
// registry — the code path `ody_bench run --campaign=smoke --trace-out`
// traces, since the smoke campaign's first planned trial is fig08 Step-Up —
// and checks two properties:
//
//  1. Determinism: two same-seed runs in one process canonicalize to the
//     exact same event sequence, even though process-global id counters
//     (connection ids, span ids) differ between the runs.
//  2. Stability: the canonical trace matches the checked-in golden file.
//     Any change to instrumentation, scheduling order, estimator behaviour,
//     or RPC sequencing shows up here as a precise first-divergence report.
//
// To regenerate the golden file after an intentional behaviour change:
//   ODY_REGEN_GOLDEN=1 ./trace_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/builtin_scenarios.h"
#include "src/harness/scenario_registry.h"
#include "src/trace/chrome_trace_exporter.h"
#include "src/trace/trace_diff.h"
#include "src/trace/trace_recorder.h"

namespace odyssey {
namespace {

// Bounded so the golden file stays reviewable; the recorder keeps the
// recorded prefix stable no matter how long the scenario runs beyond it.
constexpr size_t kGoldenCapacity = 4096;
constexpr uint64_t kGoldenSeed = 1;

const char* GoldenPath() { return ODYSSEY_GOLDEN_DIR "/fig08_stepup_trace.txt"; }

std::vector<std::string> RunCanonicalStepUp() {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(&registry);
  const Scenario* scenario = registry.Find("fig08_supply_agility");
  const ScenarioVariant* step_up = scenario == nullptr ? nullptr : scenario->FindVariant("step_up");
  EXPECT_NE(step_up, nullptr);
  if (step_up == nullptr) {
    return {};
  }
  TraceRecorder recorder(kGoldenCapacity);
  (void)step_up->run(kGoldenSeed, &recorder);
  std::string error;
  const std::string json = ChromeTraceExporter::ToJson(recorder);
  const std::vector<std::string> canon = CanonicalizeChromeTrace(json, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_FALSE(canon.empty());
  return canon;
}

TEST(TraceGoldenTest, SameSeedRunsCanonicalizeIdentically) {
  const std::vector<std::string> first = RunCanonicalStepUp();
  const std::vector<std::string> second = RunCanonicalStepUp();
  const TraceDiffResult diff = DiffCanonical(first, second);
  EXPECT_TRUE(diff.identical) << diff.Format();
}

TEST(TraceGoldenTest, MatchesCheckedInGolden) {
  const std::vector<std::string> canon = RunCanonicalStepUp();

  if (std::getenv("ODY_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const std::string& line : canon) {
      out << line << "\n";
    }
    GTEST_SKIP() << "regenerated " << GoldenPath() << " (" << canon.size() << " events)";
  }

  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath()
                         << "; regenerate with ODY_REGEN_GOLDEN=1";
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    golden.push_back(line);
  }

  const TraceDiffResult diff = DiffCanonical(golden, canon);
  EXPECT_TRUE(diff.identical) << diff.Format()
                              << "\n(if the change is intentional, regenerate with "
                                 "ODY_REGEN_GOLDEN=1 ./trace_golden_test)";
}

}  // namespace
}  // namespace odyssey
