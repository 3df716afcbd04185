#include "src/apps/tracking_window.h"

#include <algorithm>
#include <utility>

#include "src/trace/trace_macros.h"

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
      Simulation* sim = viceroy_->sim();
      ODY_TRACE_INSTANT1(sim->trace(), kApp, "adapt", sim->now(), app->id, "level", new_level);
      app->request = 0;
      Register(app, new_level);
    };
    const RequestResult result = viceroy_->Request(app->id, std::move(descriptor));
    if (result.ok()) {
      app->request = result.id;
      ++registered_;
      return;
    }
    level = result.current_level;
  }
}

}  // namespace odyssey
