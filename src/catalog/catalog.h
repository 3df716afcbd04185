// The catalog: every registered scenario and every campaign, in one place.
//
// Scenario families live in the library that can build their rigs — the
// paper figures and mobility cells in odyssey_harness, tier_scale and the
// strategy zoo in odyssey_check, the fleet in odyssey_fleet — so the one
// list that names all of them sits above every one of those libraries.
// ody_bench and the tests read campaigns and the full scenario set only
// through here.

#ifndef SRC_CATALOG_CATALOG_H_
#define SRC_CATALOG_CATALOG_H_

#include <vector>

#include "src/harness/campaign.h"
#include "src/harness/scenario_registry.h"

namespace odyssey {

// Registers every scenario family into |registry|.
void RegisterAllScenarios(ScenarioRegistry* registry);

// Every campaign, in `ody_bench list` order: tier1, smoke, agility, apps,
// ablations, tier_mobility, full, tier_scale, tier_fleet, tier_zoo.  Each
// campaign's sweep order fixes its trials' derived seeds, so new sweeps are
// only ever appended.
std::vector<CampaignSpec> AllCampaigns();

}  // namespace odyssey

#endif  // SRC_CATALOG_CATALOG_H_
