#include "src/servers/telemetry_server.h"

namespace odyssey {

void TelemetryServer::CreateFeed(const std::string& name, Duration native_period,
                                 double initial_value, double step_stddev) {
  Feed& feed = feeds_[name];
  feed.native_period = native_period;
  feed.value = initial_value;
  feed.step_stddev = step_stddev;
  feed.history.clear();
  feed.history.push_back(TelemetrySample{sim_->now(), initial_value});
  sim_->Schedule(native_period, [this, name = name] { Produce(name); });
}

Status TelemetryServer::InjectEvent(const std::string& name, double delta) {
  auto it = feeds_.find(name);
  if (it == feeds_.end()) {
    return NotFoundError("no such feed: " + name);
  }
  it->second.pending_event += delta;
  return OkStatus();
}

Status TelemetryServer::Latest(const std::string& name, int count,
                               std::vector<TelemetrySample>* out) const {
  const auto it = feeds_.find(name);
  if (it == feeds_.end()) {
    return NotFoundError("no such feed: " + name);
  }
  if (count < 1) {
    return InvalidArgumentError("count must be positive");
  }
  const auto& history = it->second.history;
  const size_t take = std::min(history.size(), static_cast<size_t>(count));
  out->assign(history.end() - static_cast<long>(take), history.end());
  return OkStatus();
}

Status TelemetryServer::NativePeriod(const std::string& name, Duration* out) const {
  const auto it = feeds_.find(name);
  if (it == feeds_.end()) {
    return NotFoundError("no such feed: " + name);
  }
  *out = it->second.native_period;
  return OkStatus();
}

void TelemetryServer::Produce(const std::string& name) {
  auto it = feeds_.find(name);
  if (it == feeds_.end()) {
    return;
  }
  Feed& feed = it->second;
  feed.value += sim_->rng().Normal(0.0, feed.step_stddev) + feed.pending_event;
  feed.pending_event = 0.0;
  feed.history.push_back(TelemetrySample{sim_->now(), feed.value});
  if (feed.history.size() > kHistoryDepth) {
    feed.history.erase(feed.history.begin(),
                       feed.history.begin() + (feed.history.size() - kHistoryDepth));
  }
  sim_->Schedule(feed.native_period, [this, name = name] { Produce(name); });
}

}  // namespace odyssey
