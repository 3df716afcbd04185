// Registration of the built-in scenarios: one registry entry per figure,
// ablation, extension and mobility grid of the evaluation, with one variant
// per cell of its grid.
//
// The single-trial bodies are file-local to builtin_scenarios.cc and return
// their own TrialMetrics; registering them makes every cell addressable by
// (scenario, variant) name so campaigns can sweep them, BENCH_*.json
// artifacts can gate regressions on them, and `ody_bench table` can print
// them as the paper's tables.

#ifndef SRC_HARNESS_BUILTIN_SCENARIOS_H_
#define SRC_HARNESS_BUILTIN_SCENARIOS_H_

#include "src/harness/scenario_registry.h"

namespace odyssey {

// Registers every built-in scenario into |registry|.  Asserts (via
// ODY_ASSERT) that registration succeeds — the built-in tables are static
// and a failure is a programming error, not an input error.
void RegisterBuiltinScenarios(ScenarioRegistry* registry);

}  // namespace odyssey

#endif  // SRC_HARNESS_BUILTIN_SCENARIOS_H_
