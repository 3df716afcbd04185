#include "src/metrics/experiment.h"

#include <memory>
#include <utility>

#include "src/core/contract.h"
#include "src/estimator/supply_model.h"
#include "src/servers/calibration.h"
#include "src/strategies/strategy_registry.h"
#include "src/wardens/file_warden.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {

ServerFarm::ServerFarm(Rng* rng) : video(rng), distillation(rng), janus(rng) {
  // The farm is freshly constructed, so the catalog cannot already hold the
  // default movie; a failure here would invalidate every trial.
  const Status added =
      video.AddMovie(VideoServer::MakeDefaultMovie(kDefaultMovie, kVideoFramesPerTrial));
  ODY_ASSERT(added.ok(), "server farm failed to seed the video catalog");
  distillation.PublishImage(kTestImageUrl, kWebImageBytes);
}

std::vector<std::unique_ptr<Warden>> ServerFarm::Wardens() {
  std::vector<std::unique_ptr<Warden>> wardens;
  wardens.push_back(std::make_unique<VideoWarden>(&video));
  wardens.push_back(std::make_unique<WebWarden>(&distillation));
  wardens.push_back(std::make_unique<SpeechWarden>(&janus));
  wardens.push_back(std::make_unique<BitstreamWarden>());
  return wardens;
}

FuzzServers::FuzzServers(Simulation* sim)
    : ServerFarm(&sim->rng()), files(&sim->rng()), telemetry(sim) {
  for (int i = 0; i < kFuzzFiles; ++i) {
    files.Publish("doc/" + std::to_string(i), (8.0 + 16.0 * i) * 1024.0);
  }
  telemetry.CreateFeed(kFuzzFeed, 200 * kMillisecond, 100.0, 5.0);
}

std::vector<std::unique_ptr<Warden>> FuzzServers::Wardens() {
  std::vector<std::unique_ptr<Warden>> wardens = ServerFarm::Wardens();
  wardens.push_back(std::make_unique<FileWarden>(&files));
  wardens.push_back(std::make_unique<TelemetryWarden>(&telemetry));
  return wardens;
}

ExperimentRig::ExperimentRig(const RigSpec& spec)
    : sim_(spec.seed),
      link_(&sim_, spec.link.bandwidth_bps, spec.link.latency),
      modulator_(&sim_, &link_) {
  // First: the link and modulator constructors neither trace nor schedule.
  sim_.set_trace(spec.trace);
  switch (spec.servers) {
    case RigServers::kPaper:
      servers_ = std::make_unique<ServerFarm>(&sim_.rng());
      break;
    case RigServers::kFuzz:
      servers_ = std::make_unique<FuzzServers>(&sim_);
      break;
    case RigServers::kNone:
      break;
  }
  StrategyContext context;
  context.sim = &sim_;
  context.modulator = &modulator_;
  context.supply = spec.supply;
  if (spec.reference) {
    context.injected_model = std::make_unique<NaiveSupplyModel>(spec.supply);
  }
  client_ = std::make_unique<OdysseyClient>(
      &sim_, &link_, StrategyRegistry::Builtin().Create(spec.strategy, std::move(context)),
      kUpcallLatency);
  if (servers_ != nullptr) {
    for (std::unique_ptr<Warden>& warden : servers_->Wardens()) {
      client_->InstallWarden(std::move(warden));
    }
  }
}

Time ExperimentRig::Replay(const ReplayTrace& trace, bool prime) {
  const ReplayTrace primed = prime ? trace.WithPriming(kPrimingPeriod) : trace;
  modulator_.Replay(primed);
  return sim_.now() + (prime ? kPrimingPeriod : 0);
}

ServerFarm& ExperimentRig::farm() {
  ODY_ASSERT(servers_ != nullptr, "the rig was built without servers");
  return *servers_;
}

}  // namespace odyssey
