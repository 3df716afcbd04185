#include "src/check/tracking_window.h"

#include <algorithm>

namespace odyssey {

void WindowTracker::Register(TrackedApp* app, double level) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ResourceDescriptor descriptor;
    descriptor.resource = ResourceId::kNetworkBandwidth;
    descriptor.lower = level * kLowerFactor;
    descriptor.upper = std::max(level * kUpperFactor, descriptor.lower + 1.0);
    descriptor.handler = [this, app](RequestId, ResourceId resource, double new_level) {
      if (resource != ResourceId::kNetworkBandwidth) {
        return;
      }
      app->request = 0;
      Register(app, new_level);
    };
    const RequestResult result = viceroy_->Request(app->id, descriptor);
    if (result.ok()) {
      app->request = result.id;
      ++registered_;
      oracle_->OnWindowRegistered(app->id, result.id, descriptor.lower, descriptor.upper);
      return;
    }
    level = result.current_level;
  }
}

}  // namespace odyssey
