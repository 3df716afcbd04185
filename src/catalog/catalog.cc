#include "src/catalog/catalog.h"

#include <string>

#include "src/check/scale_scenario.h"
#include "src/check/zoo_scenario.h"
#include "src/fleet/fleet_scenario.h"
#include "src/harness/builtin_scenarios.h"
#include "src/metrics/trial.h"
#include "src/strategies/strategy_registry.h"

namespace odyssey {

void RegisterAllScenarios(ScenarioRegistry* registry) {
  RegisterBuiltinScenarios(registry);
  RegisterScaleScenarios(registry);
  RegisterFleetScenarios(registry);
  RegisterZooScenarios(registry);
}

std::vector<CampaignSpec> AllCampaigns() {
  std::vector<CampaignSpec> campaigns;

  // The CI gate: the Figure 8 and Figure 14 grids at 64 seeds each —
  // enough samples for stable p95/p99, small enough to run on every push.
  CampaignSpec tier1;
  tier1.name = "tier1";
  tier1.description = "Fig-8 and Fig-14 grids at 64 seeds (the CI regression gate)";
  tier1.sweeps = {
      {"fig08_supply_agility", {}, 64},
      {"fig14_concurrent", {}, 64},
  };
  campaigns.push_back(tier1);

  // A seconds-long sanity campaign for tests and quick local checks.
  CampaignSpec smoke;
  smoke.name = "smoke";
  smoke.description = "four fast supply-agility trials (CLI and harness self-checks)";
  smoke.sweeps = {
      {"fig08_supply_agility", {"step_up", "step_down"}, 2},
  };
  campaigns.push_back(smoke);

  CampaignSpec agility;
  agility.name = "agility";
  agility.description = "Figures 8 and 9: supply and demand estimation agility";
  agility.sweeps = {
      {"fig08_supply_agility", {}, kPaperTrials},
      {"fig09_demand_agility", {}, kPaperTrials},
  };
  campaigns.push_back(agility);

  CampaignSpec apps;
  apps.name = "apps";
  apps.description = "Figures 10-12: video, Web, and speech application grids";
  apps.sweeps = {
      {"fig10_video", {}, kPaperTrials},
      {"fig11_web", {}, kPaperTrials},
      {"fig12_speech", {}, kPaperTrials},
  };
  campaigns.push_back(apps);

  CampaignSpec ablations;
  ablations.name = "ablations";
  ablations.description = "estimator and fair-share ablations plus the extensions";
  ablations.sweeps = {
      {"ablation_estimator", {}, kPaperTrials},
      {"ablation_fairshare", {}, kPaperTrials},
      {"ext_file_consistency", {}, kPaperTrials},
      // Appended after the sweeps above, so those keep their derived seeds.
      {"ext_page_fetch", {}, kPaperTrials},
      {"ext_vocabulary", {}, kPaperTrials},
      {"ext_urban_resources", {}, kPaperTrials},
      {"ext_telemetry", {}, kPaperTrials},
  };
  campaigns.push_back(ablations);

  // The mobility gate: every motion -> signal -> bandwidth cell at three
  // trials (per-trial cost is a 2-minute simulated drive, so this stays in
  // CI budget while covering all four models and all three layouts).
  CampaignSpec mobility;
  mobility.name = "tier_mobility";
  mobility.description = "mobility tracking and Web grids (the mobility CI gate)";
  mobility.sweeps = {
      {"mobility_track", {}, 3},
      {"mobility_web", {}, 3},
  };
  campaigns.push_back(mobility);

  CampaignSpec full;
  full.name = "full";
  full.description = "every scenario and variant at the paper's five trials";
  full.sweeps = {
      {"fig08_supply_agility", {}, kPaperTrials},
      {"fig09_demand_agility", {}, kPaperTrials},
      {"fig10_video", {}, kPaperTrials},
      {"fig11_web", {}, kPaperTrials},
      {"fig12_speech", {}, kPaperTrials},
      {"fig14_concurrent", {}, kPaperTrials},
      {"ablation_estimator", {}, kPaperTrials},
      {"ablation_fairshare", {}, kPaperTrials},
      {"ext_file_consistency", {}, kPaperTrials},
      {"mobility_track", {}, kPaperTrials},
      {"mobility_web", {}, kPaperTrials},
      // Appended after the sweeps above, so those keep their derived seeds.
      {"ext_page_fetch", {}, kPaperTrials},
      {"ext_vocabulary", {}, kPaperTrials},
      {"ext_urban_resources", {}, kPaperTrials},
      {"ext_telemetry", {}, kPaperTrials},
  };
  campaigns.push_back(full);

  // The hot core at 100 to 100k concurrent adaptive applications, plus the
  // naive reference stack at 1k on a short schedule.
  CampaignSpec scale;
  scale.name = "tier_scale";
  scale.description =
      "hot-core scaling: events/sec, upcall latency and oracle cleanliness at N in "
      "{100, 1k, 10k, 100k}, plus the naive reference stack at 1k";
  scale.sweeps = {
      SweepSpec{"scale_core", {"n100"}, 3},
      SweepSpec{"scale_core", {"n1k"}, 2},
      SweepSpec{"scale_core", {"n10k"}, 1},
      SweepSpec{"scale_core", {"n100k"}, 1},
      SweepSpec{"scale_core", {"n1k_naive"}, 1},
  };
  campaigns.push_back(scale);

  CampaignSpec fleet;
  fleet.name = "tier_fleet";
  fleet.description =
      "fleet sharing: per-server fairness, overclaim and aggregation convergence for N in "
      "{2, 8, 32, 128} nodes under centralized, laissez-faire and blind-optimism management";
  const auto sweep = [&fleet](int nodes, int trials) {
    const std::string count = std::to_string(nodes);
    for (const char* strategy : {"odyssey", "laissez", "blind"}) {
      for (const char* wave : {"fixed", "mob"}) {
        fleet.sweeps.push_back(
            SweepSpec{"fleet_share", {"n" + count + "_" + strategy + "_" + wave}, trials});
      }
    }
  };
  sweep(2, 2);
  sweep(8, 1);
  sweep(32, 1);
  sweep(128, 1);
  campaigns.push_back(fleet);

  CampaignSpec zoo;
  zoo.name = "tier_zoo";
  zoo.description =
      "strategy zoo: the paper's supply, demand and concurrency comparisons plus mobility "
      "and eight-node fleet cells, swept across every registered strategy";
  // Every strategy_zoo variant (an empty list sweeps all of them, so a new
  // strategy row joins the campaign without touching this spec).
  zoo.sweeps.push_back(SweepSpec{"strategy_zoo", {}, 3});
  // The sharded rig, one n8 pair per registry entry: admission control and
  // shared congestion state must compose with cross-node estimate
  // aggregation, not just the local model.
  for (const std::string& strategy : StrategyRegistry::Builtin().Names()) {
    const std::string& label = StrategyRegistry::Builtin().Find(strategy)->label;
    for (const char* wave : {"fixed", "mob"}) {
      zoo.sweeps.push_back(SweepSpec{"fleet_share", {"n8_" + label + "_" + wave}, 2});
    }
  }
  campaigns.push_back(zoo);

  return campaigns;
}

}  // namespace odyssey
