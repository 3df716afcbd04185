// The tier_scale campaign: the viceroy hot core at 100 to 100k concurrent
// adaptive applications, with every fuzzing oracle left on.
//
// Each variant builds a shared-nothing ExperimentRig with no servers,
// registers N applications each holding a re-registering window of
// tolerance, and drives a stepped supply waveform through a small
// set of hot connections.  Every supply step violates every window at once,
// so the rig exercises exactly the paths the scale work optimized: the
// indexed re-evaluation, batched upcall dispatch, slab-allocated request
// table and incremental supply model.  The n1k_naive variant runs the same
// rig on the pre-scale reference stack (an injected naive supply model,
// whose inexact hints send the viceroy down the full scan) over a 1 s
// schedule, and its model_scan_ops pin the reference's quadratic cost.
//
// This lives in odyssey_check rather than odyssey_harness because the rig
// keeps the PR-5 OracleSet attached throughout — a trial with any oracle
// violation reports it in the artifact (oracle_violations gates at zero).

#ifndef SRC_CHECK_SCALE_SCENARIO_H_
#define SRC_CHECK_SCALE_SCENARIO_H_

#include "src/harness/scenario_registry.h"

namespace odyssey {

// Registers the "scale_core" scenario (variants n100, n1k, n10k, n100k,
// n1k_naive).  Asserts that registration succeeds, like
// RegisterBuiltinScenarios.
void RegisterScaleScenarios(ScenarioRegistry* registry);

}  // namespace odyssey

#endif  // SRC_CHECK_SCALE_SCENARIO_H_
