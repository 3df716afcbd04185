// Campaign specifications: declarative sweeps over registered scenarios.
//
// A campaign names a set of (scenario, variants, trial-count) sweeps and a
// single campaign seed.  ExpandCampaign flattens the sweeps into an ordered
// trial plan; each planned trial's seed is derived from the campaign seed
// and the trial's position in that plan (DeriveTrialSeed), so the plan —
// and therefore every result — is a pure function of the spec, independent
// of how many workers later execute it or in what order they finish.

#ifndef SRC_HARNESS_CAMPAIGN_H_
#define SRC_HARNESS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/harness/scenario_registry.h"

namespace odyssey {

// The seed for trial |trial_index| of a campaign seeded |campaign_seed|:
// output number |trial_index| + 1 of the SplitMix64 stream rooted at the
// campaign seed, computed in O(1) by jumping the stream's state (it
// advances by a fixed gamma per output, so any element is one mix away).
// Fixed-width arithmetic only: the value is identical on every platform
// and for every worker count.
uint64_t DeriveTrialSeed(uint64_t campaign_seed, uint64_t trial_index);

// One sweep: run |trials| trials of each listed variant of |scenario|.
struct SweepSpec {
  std::string scenario;
  // Variant names to run; empty means every registered variant.
  std::vector<std::string> variants;
  int trials = 5;
};

struct CampaignSpec {
  std::string name;
  std::string description;
  uint64_t seed = kDefaultCampaignSeed;
  std::vector<SweepSpec> sweeps;

  static constexpr uint64_t kDefaultCampaignSeed = 1997;  // the paper's year
};

// Campaign lookup by name; null when absent.
const CampaignSpec* FindCampaign(const std::vector<CampaignSpec>& campaigns,
                                 const std::string& name);

// One cell of the expanded plan: variant |variant| of |scenario|, trial
// ordinal |trial| (0-based within its sweep), executed with |seed|.
struct PlannedTrial {
  std::string scenario;
  std::string variant;
  int trial = 0;
  uint64_t trial_index = 0;  // position in the campaign-wide plan
  uint64_t seed = 0;
};

// Flattens |spec| against |registry| into an ordered trial plan: sweeps in
// spec order, variants in sweep (or registration) order, trials 0..n-1.
// kNotFound for an unknown scenario or variant; kInvalidArgument for a
// non-positive trial count.
Status ExpandCampaign(const CampaignSpec& spec, const ScenarioRegistry& registry,
                      std::vector<PlannedTrial>* plan);

}  // namespace odyssey

#endif  // SRC_HARNESS_CAMPAIGN_H_
