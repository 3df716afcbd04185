#include "src/wardens/telemetry_warden.h"

#include <utility>

#include "src/core/tsop_codec.h"
#include "src/trace/trace_macros.h"

namespace odyssey {

int TelemetryWarden::AdaptiveLevel(double bandwidth_bps) {
  if (bandwidth_bps >= kLiveFloor) {
    return 0;
  }
  if (bandwidth_bps >= kThinnedFloor) {
    return 1;
  }
  return 2;
}

void TelemetryWarden::SetSampleCallback(AppId app, SampleCallback callback) {
  callbacks_[app] = std::move(callback);
}

void TelemetryWarden::Tsop(AppId app, const std::string& path, int opcode, const std::string& in,
                           TsopCallback done) {
  switch (opcode) {
    case kTelemetrySubscribe: {
      TelemetrySubscribeRequest request;
      if (!UnpackStruct(in, &request) || request.fixed_level > 2) {
        done(InvalidArgumentError("bad subscribe request"), "");
        return;
      }
      Duration native_period = 0;
      if (const Status status = server_->NativePeriod(path, &native_period); !status.ok()) {
        done(status, "");
        return;
      }
      Subscription& subscription = subscriptions_[app];
      subscription.app = app;
      subscription.feed = path;
      if (subscription.endpoint == nullptr) {
        subscription.endpoint = client()->OpenConnection(app, "telemetry:" + path);
      }
      subscription.active = true;
      subscription.fixed = request.fixed_level >= 0;
      subscription.level = request.fixed_level >= 0 ? request.fixed_level : 0;
      subscription.native_period = native_period;
      subscription.last_seen = 0;
      subscription.stats = TelemetryStats{};
      subscription.staleness_ms_sum = 0.0;
      done(OkStatus(), PackStruct(TelemetrySubscribed{subscription.endpoint->id()}));
      ScheduleNextPoll(app);
      return;
    }
    case kTelemetryUnsubscribe: {
      auto it = subscriptions_.find(app);
      if (it == subscriptions_.end()) {
        done(NotFoundError("no subscription"), "");
        return;
      }
      it->second.active = false;
      it->second.stats.current_level = it->second.level;
      if (it->second.stats.samples_delivered > 0) {
        it->second.stats.mean_staleness_ms =
            it->second.staleness_ms_sum / it->second.stats.samples_delivered;
      }
      done(OkStatus(), PackStruct(it->second.stats));
      return;
    }
    case kTelemetrySetLevel: {
      TelemetrySetLevelRequest request;
      auto it = subscriptions_.find(app);
      if (it == subscriptions_.end() || !UnpackStruct(in, &request) || request.level < 0 ||
          request.level > 2) {
        done(InvalidArgumentError("bad set-level request"), "");
        return;
      }
      if (it->second.level != request.level) {
        it->second.level = request.level;
        ++it->second.stats.level_changes;
      }
      it->second.fixed = true;
      done(OkStatus(), "");
      return;
    }
    case kTelemetryStats: {
      auto it = subscriptions_.find(app);
      if (it == subscriptions_.end()) {
        done(NotFoundError("no subscription"), "");
        return;
      }
      TelemetryStats stats = it->second.stats;
      stats.current_level = it->second.level;
      if (stats.samples_delivered > 0) {
        stats.mean_staleness_ms = it->second.staleness_ms_sum / stats.samples_delivered;
      }
      done(OkStatus(), PackStruct(stats));
      return;
    }
    default:
      done(UnsupportedError("unknown telemetry tsop"), "");
      return;
  }
}

void TelemetryWarden::ScheduleNextPoll(AppId app) {
  auto it = subscriptions_.find(app);
  if (it == subscriptions_.end() || !it->second.active) {
    return;
  }
  Subscription& subscription = it->second;
  const TelemetryLevel& level = kTelemetryLevels[subscription.level];
  // A poll cycle covers batch_samples kept samples, each standing for
  // sampling_divisor native periods.
  const Duration cycle = subscription.native_period *
                         static_cast<Duration>(level.sampling_divisor * level.batch_samples);
  client()->sim()->Schedule(cycle, [this, app] { Poll(app); });
}

void TelemetryWarden::Poll(AppId app) {
  auto it = subscriptions_.find(app);
  if (it == subscriptions_.end() || !it->second.active) {
    return;
  }
  Subscription& subscription = it->second;

  // Adapt the delivery level before each cycle, unless pinned.
  if (!subscription.fixed) {
    const int wanted =
        AdaptiveLevel(client()->CurrentLevel(app, ResourceId::kNetworkBandwidth));
    if (wanted != subscription.level) {
      subscription.level = wanted;
      ++subscription.stats.level_changes;
      ODY_TRACE_INSTANT1(client()->sim()->trace(), kWarden, "telemetry_level",
                         client()->sim()->now(), app, "level", wanted);
    }
  }
  const TelemetryLevel& level = kTelemetryLevels[subscription.level];

  // Ask the server for this cycle's batch: the newest batch_samples of the
  // thinned stream.
  std::vector<TelemetrySample> latest;
  const int native_span = level.sampling_divisor * level.batch_samples;
  if (!server_->Latest(subscription.feed, native_span, &latest).ok()) {
    return;
  }
  std::vector<TelemetrySample> kept;
  for (size_t i = 0; i < latest.size(); i += static_cast<size_t>(level.sampling_divisor)) {
    if (latest[i].produced_at > subscription.last_seen) {
      kept.push_back(latest[i]);
    }
  }
  ++subscription.stats.polls;
  const double bytes = TelemetryServer::kTelemetrySampleBytes *
                       static_cast<double>(kept.empty() ? 1 : kept.size());
  subscription.endpoint->Fetch(bytes, kMillisecond, [this, app, kept = std::move(kept)](Status) {
    auto sit = subscriptions_.find(app);
    if (sit == subscriptions_.end() || !sit->second.active) {
      return;
    }
    Subscription& s = sit->second;
    const Time now = client()->sim()->now();
    for (const TelemetrySample& sample : kept) {
      if (sample.produced_at > s.last_seen) {
        s.last_seen = sample.produced_at;
      }
      ++s.stats.samples_delivered;
      s.staleness_ms_sum += DurationToMillis(now - sample.produced_at);
      const auto cb = callbacks_.find(app);
      if (cb != callbacks_.end() && cb->second) {
        cb->second(s.feed, sample);
      }
    }
    ScheduleNextPoll(app);
  });
}

}  // namespace odyssey
