// The tier_zoo campaign: every registered bandwidth strategy run through the
// same fixed workload grid, with every fuzzing oracle left on.
//
// The grid re-creates the three paper comparisons as deterministic fuzz
// scenarios — a Fig-8-style stepped-supply waveform, a Fig-9-style
// demand-churn schedule under constant supply, and a Fig-14-style six-warden
// concurrency mix — plus a mobility cell whose waveform comes from the
// motion -> signal -> bandwidth pipeline.  Each cell is swept across the
// whole StrategyRegistry, so laissez-faire, blind optimism, the shared
// congestion manager and the admission broker all face exactly the workload
// the seed centralized strategy faces, and the artifact shows their upcall,
// denial and byte-delivery profiles side by side.  oracle_violations gates
// at zero for every cell: the un-audited strategies still run under the
// dispatcher, conservation and determinism oracles.
//
// This lives in odyssey_check (like scale_scenario) because the cells
// execute through RunFuzzScenario with the full OracleSet attached.

#ifndef SRC_CHECK_ZOO_SCENARIO_H_
#define SRC_CHECK_ZOO_SCENARIO_H_

#include "src/harness/scenario_registry.h"

namespace odyssey {

// Registers the "strategy_zoo" scenario: variants <label>_{supply, demand,
// concurrent, mob} for every entry in StrategyRegistry::Builtin(), named by
// the entry's label (the fleet_share variant vocabulary: odyssey, laissez,
// blind, cm, broker).  Asserts that registration succeeds, like
// RegisterBuiltinScenarios.
void RegisterZooScenarios(ScenarioRegistry* registry);

}  // namespace odyssey

#endif  // SRC_CHECK_ZOO_SCENARIO_H_
