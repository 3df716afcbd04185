#include "src/metrics/experiment.h"

#include <utility>

#include "src/core/contract.h"
#include "src/servers/calibration.h"
#include "src/strategies/strategy_registry.h"

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
  return wardens;
}

ExperimentRig::ExperimentRig(uint64_t seed, const std::string& strategy)
    : sim_(seed),
      link_(&sim_, kHighBandwidth, kOneWayLatency),
      modulator_(&sim_, &link_),
      farm_(&sim_.rng()) {
  StrategyContext context;
  context.sim = &sim_;
  context.modulator = &modulator_;
  client_ = std::make_unique<OdysseyClient>(
      &sim_, &link_, StrategyRegistry::Builtin().Create(strategy, std::move(context)),
      kUpcallLatency);
  for (std::unique_ptr<Warden>& warden : farm_.Wardens()) {
    client_->InstallWarden(std::move(warden));
  }
  client_->InstallWarden(std::make_unique<BitstreamWarden>());
}

Time ExperimentRig::Replay(const ReplayTrace& trace, bool prime) {
  const ReplayTrace primed = prime ? trace.WithPriming(kPrimingPeriod) : trace;
  modulator_.Replay(primed);
  return sim_.now() + (prime ? kPrimingPeriod : 0);
}

}  // namespace odyssey
