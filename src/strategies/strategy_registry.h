// Name-indexed registry of bandwidth-management strategies (the "zoo").
//
// Every strategy the reproduction knows is registered here by name, so the
// fuzzer (--strategy / the seed-drawn strategy dimension), both fleet rigs,
// the strategy_zoo and fleet_share scenarios, and the conformance test kit
// all build strategies the same way and discover new ones by adding one
// registry line.  The builtin registry holds the paper's three policies
// plus the two production strategies grown on top (variant label in []):
//
//   odyssey [odyssey]         — centralized supply model, per-connection shares
//   laissez-faire [laissez]   — isolated per-connection estimates
//   blind-optimism [blind]    — theoretical link bandwidth at each transition
//   congestion-manager [cm]   — per-server shared congestion state,
//                               hierarchical server -> app -> connection
//   admission-broker [broker] — QoS admission control over centralized estimation
//
// Capabilities are asked of the built strategy, through audit_surface() and
// arbitration(), never read from its entry.  A factory receives a
// StrategyContext describing the rig it is being built into;
// centralized-family strategies (odyssey, congestion-manager,
// admission-broker) consume an injected supply model there, which is how
// the fleet's sharded aggregation composes with every member of the family,
// and how a RigSpec::reference rig puts the naive reference model under
// each of them.  laissez-faire and blind-optimism ignore it.

#ifndef SRC_STRATEGIES_STRATEGY_REGISTRY_H_
#define SRC_STRATEGIES_STRATEGY_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bandwidth_strategy.h"
#include "src/estimator/supply_model.h"
#include "src/net/modulator.h"
#include "src/sim/simulation.h"

namespace odyssey {

// Everything a strategy factory may need.  |injected_model| is consumed by
// centralized-family factories when non-null; |modulator| is required only
// by blind-optimism (the transition listener).
struct StrategyContext {
  Simulation* sim = nullptr;
  Modulator* modulator = nullptr;
  SupplyModelConfig supply;
  std::unique_ptr<SupplyModelInterface> injected_model;
};

struct StrategyInfo {
  std::string name;
  // Short token naming the strategy's variants in the fleet_share and
  // strategy_zoo scenarios ("n8_cm_fixed", "cm_supply").
  std::string label;
  std::string summary;
  std::function<std::unique_ptr<BandwidthStrategy>(StrategyContext&&)> factory;
};

class StrategyRegistry {
 public:
  void Register(StrategyInfo info);

  // nullptr when |name| is unknown.
  const StrategyInfo* Find(const std::string& name) const;

  // Registered names, in registration order (deterministic for sweeps).
  std::vector<std::string> Names() const;

  // Builds |name|'s strategy; asserts the name is registered.
  std::unique_ptr<BandwidthStrategy> Create(const std::string& name, StrategyContext&& ctx) const;

  // The process-wide registry holding the five builtin strategies.
  static const StrategyRegistry& Builtin();

 private:
  std::vector<StrategyInfo> infos_;
};

}  // namespace odyssey

#endif  // SRC_STRATEGIES_STRATEGY_REGISTRY_H_
