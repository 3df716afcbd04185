// The tracking window: an application holds a [0.7x, 1.3x] bandwidth
// window around its current level and re-registers around the delivered
// level on every upcall (§4.2's request/upcall/re-request loop).  Each
// delivered upcall is one adaptation, recorded as a kApp "adapt" instant.
// The Figure 8 and mobility trials, the scale and fleet campaigns and the
// fleet_drive example drive their apps through this one helper.  It talks
// to the viceroy alone: an armed OracleSet learns every window it registers
// from the viceroy's window observer.

#ifndef SRC_APPS_TRACKING_WINDOW_H_
#define SRC_APPS_TRACKING_WINDOW_H_

#include <cstdint>

#include "src/core/resource.h"
#include "src/core/viceroy.h"

namespace odyssey {

// One application's registration state.
struct TrackedApp {
  AppId id = 0;
  RequestId request = 0;  // current registration; 0 = none
};

class WindowTracker {
 public:
  // Window bounds relative to the level, and the cap on attempts per
  // registration.
  static constexpr double kLowerFactor = 0.7;
  static constexpr double kUpperFactor = 1.3;
  static constexpr int kMaxAttempts = 4;

  explicit WindowTracker(Viceroy* viceroy) : viceroy_(viceroy) {}

  WindowTracker(const WindowTracker&) = delete;
  WindowTracker& operator=(const WindowTracker&) = delete;

  // Registers a window around |level| for |app|: [0.7x, 1.3x], with the
  // upper bound at least lower + 1 so a zero level still gets a window.  A
  // level that moved between upcall post and delivery can make an attempt
  // out of bounds; each retry re-centres on the reported current level,
  // which the new window contains unless admission control refuses it.
  // Gives up after kMaxAttempts attempts, leaving app->request at 0.  The
  // window's upcall handler records the "adapt" instant, clears
  // app->request (the delivered upcall consumed the registration) and
  // registers again around the delivered level.
  void Register(TrackedApp* app, double level);

  // Successful registrations so far.
  uint64_t registered() const { return registered_; }

 private:
  Viceroy* const viceroy_;
  uint64_t registered_ = 0;
};

}  // namespace odyssey

#endif  // SRC_APPS_TRACKING_WINDOW_H_
