// The tier_fleet campaign: N client nodes — each a full viceroy + warden
// stack behind its own waveform-modulated link — sharing M servers through
// the fleet estimate-aggregation protocol, under all fuzzing oracles.
//
// Each variant crosses a fleet size (N in {2, 8, 32, 128}) with every
// StrategyRegistry entry, named by its label (odyssey = centralized
// arbitration against the fleet-merged *server* supply, laissez / blind =
// per-node laissez-faire / blind optimism, cm / broker = congestion manager
// / admission control over the fleet-merged supply) and a waveform family
// (fixed steps or motion-generated mobility traces).  The headline figures
// are the per-server fairness (Jain index across nodes' claims) and
// overclaim (summed claims over the server's capacity share): centralized
// fleet arbitration keeps claims near the per-server fair share while the
// strategies that ignore their peers oversubscribe the shared servers.
//
// Like tier_scale this lives beside odyssey_check, keeping the OracleSet
// armed per node throughout (oracle_violations gates at zero).

#ifndef SRC_FLEET_FLEET_SCENARIO_H_
#define SRC_FLEET_FLEET_SCENARIO_H_

#include "src/harness/scenario_registry.h"

namespace odyssey {

// Registers the "fleet_share" scenario (variants n<N>_<label>_<wave>).
// Asserts that registration succeeds, like RegisterScaleScenarios.
void RegisterFleetScenarios(ScenarioRegistry* registry);

}  // namespace odyssey

#endif  // SRC_FLEET_FLEET_SCENARIO_H_
