#include "src/strategies/strategy_registry.h"

#include <utility>

#include "src/core/contract.h"
#include "src/strategies/admission_broker.h"
#include "src/strategies/blind_optimism.h"
#include "src/strategies/centralized.h"
#include "src/strategies/congestion_manager.h"
#include "src/strategies/laissez_faire.h"

namespace odyssey {
namespace {

// A centralized-family strategy over the context's injected supply model,
// or else over one built from its config.
template <typename Strategy>
std::unique_ptr<Strategy> MakeCentralized(StrategyContext&& ctx) {
  if (ctx.injected_model != nullptr) {
    return std::make_unique<Strategy>(ctx.sim, std::move(ctx.injected_model));
  }
  return std::make_unique<Strategy>(ctx.sim, ctx.supply);
}

StrategyRegistry MakeBuiltin() {
  StrategyRegistry registry;
  registry.Register(
      {"odyssey", "odyssey",
       "centralized supply model with per-connection fair shares (the paper)",
       [](StrategyContext&& ctx) -> std::unique_ptr<BandwidthStrategy> {
         return MakeCentralized<CentralizedStrategy>(std::move(ctx));
       }});
  registry.Register({"laissez-faire", "laissez",
                     "each connection estimates in isolation (Figure 14's over-estimator)",
                     [](StrategyContext&& ctx) -> std::unique_ptr<BandwidthStrategy> {
                       return std::make_unique<LaissezFaireStrategy>(ctx.supply.estimator);
                     }});
  registry.Register({"blind-optimism", "blind",
                     "theoretical link bandwidth delivered at each transition",
                     [](StrategyContext&& ctx) -> std::unique_ptr<BandwidthStrategy> {
                       ODY_ASSERT(ctx.modulator != nullptr,
                                  "blind-optimism needs the rig's modulator");
                       return std::make_unique<BlindOptimismStrategy>(ctx.modulator,
                                                                     ctx.supply.estimator);
                     }});
  registry.Register(
      {"congestion-manager", "cm",
       "per-server shared congestion state, hierarchical server->app->connection allocation",
       [](StrategyContext&& ctx) -> std::unique_ptr<BandwidthStrategy> {
         return MakeCentralized<CongestionManagerStrategy>(std::move(ctx));
       }});
  registry.Register(
      {"admission-broker", "broker",
       "QoS admission control (admit/degrade/reject) over centralized estimation",
       [](StrategyContext&& ctx) -> std::unique_ptr<BandwidthStrategy> {
         Simulation* sim = ctx.sim;
         return std::make_unique<AdmissionBrokerStrategy>(
             sim, MakeCentralized<CentralizedStrategy>(std::move(ctx)));
       }});
  return registry;
}

}  // namespace

void StrategyRegistry::Register(StrategyInfo info) {
  ODY_ASSERT(Find(info.name) == nullptr, "duplicate strategy name");
  infos_.push_back(std::move(info));
}

const StrategyInfo* StrategyRegistry::Find(const std::string& name) const {
  for (const StrategyInfo& info : infos_) {
    if (info.name == name) {
      return &info;
    }
  }
  return nullptr;
}

std::vector<std::string> StrategyRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(infos_.size());
  for (const StrategyInfo& info : infos_) {
    names.push_back(info.name);
  }
  return names;
}

std::unique_ptr<BandwidthStrategy> StrategyRegistry::Create(const std::string& name,
                                                            StrategyContext&& ctx) const {
  const StrategyInfo* info = Find(name);
  ODY_ASSERT(info != nullptr, "unknown strategy name");
  return info->factory(std::move(ctx));
}

const StrategyRegistry& StrategyRegistry::Builtin() {
  static const StrategyRegistry* kRegistry = new StrategyRegistry(MakeBuiltin());
  return *kRegistry;
}

}  // namespace odyssey
