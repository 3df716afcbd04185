#include "src/harness/campaign.h"

#include "src/sim/random.h"

namespace odyssey {

uint64_t DeriveTrialSeed(uint64_t campaign_seed, uint64_t trial_index) {
  // SplitMix64's state advances by a fixed gamma per Next(), so the stream
  // can be entered at any element in O(1): seeding at
  // campaign_seed + trial_index * gamma and taking one step yields exactly
  // what trial_index + 1 sequential Next() calls from the campaign seed
  // would (wrapping uint64 arithmetic; identical on every platform).
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  SplitMix64 at(campaign_seed + trial_index * kGamma);
  return at.Next();
}

const CampaignSpec* FindCampaign(const std::vector<CampaignSpec>& campaigns,
                                 const std::string& name) {
  for (const CampaignSpec& campaign : campaigns) {
    if (campaign.name == name) {
      return &campaign;
    }
  }
  return nullptr;
}

Status ExpandCampaign(const CampaignSpec& spec, const ScenarioRegistry& registry,
                      std::vector<PlannedTrial>* plan) {
  plan->clear();
  uint64_t trial_index = 0;
  for (const SweepSpec& sweep : spec.sweeps) {
    const Scenario* scenario = registry.Find(sweep.scenario);
    if (scenario == nullptr) {
      return NotFoundError("campaign " + spec.name + " sweeps unknown scenario " +
                           sweep.scenario);
    }
    if (sweep.trials <= 0) {
      return InvalidArgumentError("campaign " + spec.name + " sweep " + sweep.scenario +
                                  " has a non-positive trial count");
    }
    std::vector<std::string> variants = sweep.variants;
    if (variants.empty()) {
      for (const ScenarioVariant& variant : scenario->variants) {
        variants.push_back(variant.name);
      }
    }
    for (const std::string& variant_name : variants) {
      if (scenario->FindVariant(variant_name) == nullptr) {
        return NotFoundError("campaign " + spec.name + " sweeps unknown variant " +
                             sweep.scenario + "/" + variant_name);
      }
      for (int trial = 0; trial < sweep.trials; ++trial) {
        plan->push_back({sweep.scenario, variant_name, trial, trial_index,
                         DeriveTrialSeed(spec.seed, trial_index)});
        ++trial_index;
      }
    }
  }
  return OkStatus();
}

}  // namespace odyssey
