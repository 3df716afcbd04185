// Tests for the tracking window (src/apps/tracking_window.h): the one
// request/upcall/re-request loop the paper trials, campaigns and examples
// share, driven against a real Viceroy with a hand-set bandwidth level.

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "src/apps/tracking_window.h"
#include "src/core/resource.h"
#include "src/core/viceroy.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/trace/trace_event.h"
#include "src/trace/trace_recorder.h"
#include "tests/scripted_strategy.h"

namespace odyssey {
namespace {

class WindowTrackerTest : public testing::Test {
 protected:
  WindowTrackerTest() {
    auto strategy = std::make_unique<ScriptedStrategy>();
    strategy_ = strategy.get();
    viceroy_ = std::make_unique<Viceroy>(&sim_, std::move(strategy), kMillisecond);
    tracker_ = std::make_unique<WindowTracker>(viceroy_.get());
    app_.id = viceroy_->RegisterApplication("tracker");
  }

  // Moves the level, then lets any upcall it causes deliver.
  void MoveAndSettle(double to) {
    strategy_->MoveTo(to);
    sim_.RunUntil(sim_.now() + kSecond);
  }

  Simulation sim_;
  ScriptedStrategy* strategy_ = nullptr;
  std::unique_ptr<Viceroy> viceroy_;
  std::unique_ptr<WindowTracker> tracker_;
  TrackedApp app_;
};

TEST_F(WindowTrackerTest, MovedLevelRecentresOnTheReportedLevel) {
  // The caller's level is stale: the first attempt is out of bounds, and the
  // retry centres on the 100 KB/s the viceroy reported.
  tracker_->Register(&app_, 10.0 * 1024);
  ASSERT_NE(app_.request, 0u);
  EXPECT_EQ(tracker_->registered(), 1u);
  EXPECT_EQ(strategy_->decisions, 1);
  const RequestId held = app_.request;
  // Inside [70, 130] KB/s: no upcall.
  MoveAndSettle(125.0 * 1024);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 0u);
  EXPECT_EQ(app_.request, held);
  // Past 130 KB/s: the window fires.
  MoveAndSettle(135.0 * 1024);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 1u);
}

TEST_F(WindowTrackerTest, DeliveredUpcallClearsTheRegistrationAndRegistersAgain) {
  tracker_->Register(&app_, strategy_->level);
  const RequestId first = app_.request;
  ASSERT_NE(first, 0u);
  MoveAndSettle(300.0 * 1024);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 1u);
  EXPECT_NE(app_.request, 0u);
  EXPECT_NE(app_.request, first);
  EXPECT_EQ(tracker_->registered(), 2u);
  // With registration refused, the consumed window leaves the app with none.
  strategy_->reject = true;
  MoveAndSettle(30.0 * 1024);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 2u);
  EXPECT_EQ(app_.request, 0u);
  EXPECT_EQ(tracker_->registered(), 2u);
}

TEST_F(WindowTrackerTest, GivesUpAfterFourAttempts) {
  strategy_->reject = true;
  tracker_->Register(&app_, strategy_->level);
  EXPECT_EQ(strategy_->decisions, WindowTracker::kMaxAttempts);
  EXPECT_EQ(WindowTracker::kMaxAttempts, 4);
  EXPECT_EQ(app_.request, 0u);
  EXPECT_EQ(tracker_->registered(), 0u);
}

TEST_F(WindowTrackerTest, RegistersZeroToOneAtLevelZero) {
  // [0.7x, 1.3x] of nothing is empty; the lower + 1 floor keeps a window
  // that a dead link fits and any recovery leaves.
  strategy_->MoveTo(0.0);
  tracker_->Register(&app_, 0.0);
  ASSERT_NE(app_.request, 0u);
  EXPECT_EQ(strategy_->decisions, 1);
  MoveAndSettle(1.0);  // the upper bound is inside
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 0u);
  MoveAndSettle(1.5);
  EXPECT_EQ(viceroy_->upcalls().delivered_count(), 1u);
}

TEST_F(WindowTrackerTest, TracedRunRecordsOneAdaptInstantPerDeliveredUpcall) {
  TraceRecorder recorder;
  sim_.set_trace(&recorder);
  tracker_->Register(&app_, strategy_->level);
  for (const double kbps : {300.0, 40.0, 45.0, 20.0, 500.0}) {
    MoveAndSettle(kbps * 1024);
  }
  sim_.set_trace(nullptr);
  // 45 KB/s stays inside the window centred on 40: four upcalls.
  ASSERT_EQ(viceroy_->upcalls().delivered_count(), 4u);
  uint64_t adapts = 0;
  double last_level = 0.0;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (event.category == TraceCategory::kApp && std::strcmp(event.name, "adapt") == 0) {
      ++adapts;
      EXPECT_EQ(event.phase, TracePhase::kInstant);
      EXPECT_EQ(event.id, app_.id);
      last_level = event.arg0;
    }
  }
  EXPECT_EQ(adapts, viceroy_->upcalls().delivered_count());
  EXPECT_DOUBLE_EQ(last_level, 500.0 * 1024);
}

}  // namespace
}  // namespace odyssey
