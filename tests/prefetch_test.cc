// Tests for the route prefetch agent (§2.3's emergency-response scenario).

#include <gtest/gtest.h>

#include "src/apps/prefetch_agent.h"
#include "src/core/battery_model.h"
#include "src/metrics/experiment.h"
#include "src/servers/file_server.h"
#include "src/wardens/file_warden.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

class PrefetchTest : public ::testing::Test {
 protected:
  PrefetchTest() : rig_(1, "odyssey"), file_server_(&rig_.sim().rng()) {
    for (int i = 0; i < 12; ++i) {
      route_.push_back("areas/sector-" + std::to_string(i));
      file_server_.Publish(route_.back(), 64.0 * kKb);
    }
    rig_.client().InstallWarden(std::make_unique<FileWarden>(&file_server_));
  }

  PrefetchAgentOptions Options() {
    PrefetchAgentOptions options;
    options.route = route_;
    options.advance_period = 10 * kSecond;
    return options;
  }

  ExperimentRig rig_;
  FileServer file_server_;
  std::vector<std::string> route_;
};

TEST_F(PrefetchTest, HighBandwidthGivesNearPerfectHitRate) {
  PrefetchAgent agent(&rig_.client(), Options());
  rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  agent.Start();
  rig_.sim().RunUntil(3 * kMinute);
  ASSERT_TRUE(agent.finished());
  ASSERT_EQ(agent.visits().size(), route_.size());
  // Every area after the first was warmed before the user arrived.
  EXPECT_GE(agent.HitRate(), 0.99);
  EXPECT_GE(agent.prefetches_issued(), static_cast<int>(route_.size()) - 1);
  // A prefetched visit is served from the cache, essentially instantly.
  EXPECT_LT(agent.visits().back().fetch_time, 50 * kMillisecond);
}

TEST_F(PrefetchTest, StarvedLinkMissesSomeAreas) {
  // 64 KB per area every 10 s needs ~6.5 KB/s just to keep up; at 4 KB/s
  // the prefetcher cannot stay ahead.
  PrefetchAgent agent(&rig_.client(), Options());
  rig_.Replay(MakeConstant(4.0 * kKb, 20 * kMinute), /*prime=*/false);
  agent.Start();
  rig_.sim().RunUntil(5 * kMinute);
  EXPECT_LT(agent.HitRate(), 0.8);
}

TEST_F(PrefetchTest, DepthPolicyFollowsBandwidthAndBattery) {
  PrefetchAgentOptions options = Options();
  options.min_battery_minutes = 30.0;
  PrefetchAgent agent(&rig_.client(), options);
  EXPECT_EQ(agent.ChooseDepth(kHighBandwidth, 100.0), 3);   // capped at max_depth
  EXPECT_EQ(agent.ChooseDepth(30.0 * kKb, 100.0), 1);       // slow link: shallow
  EXPECT_EQ(agent.ChooseDepth(kHighBandwidth, 10.0), 0);    // low battery: stop
}

TEST_F(PrefetchTest, LowBatterySuppressesPrefetching) {
  PrefetchAgentOptions options = Options();
  options.min_battery_minutes = 30.0;
  PrefetchAgent agent(&rig_.client(), options);
  BatteryModel::Config battery_config;
  battery_config.capacity_minutes = 10.0;  // already below the floor
  BatteryModel battery(&rig_.sim(), &rig_.client().viceroy(), &rig_.link(), battery_config);
  rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  battery.Start();
  agent.Start();
  rig_.sim().RunUntil(3 * kMinute);
  EXPECT_EQ(agent.prefetches_issued(), 0);
  EXPECT_GT(agent.prefetches_suppressed_battery(), 0);
  // Visits still work — on demand, paying the fetch each time.
  EXPECT_EQ(agent.visits().size(), route_.size());
  EXPECT_LT(agent.HitRate(), 0.01);
}

TEST_F(PrefetchTest, EmptyRouteFinishesImmediately) {
  PrefetchAgentOptions options;
  PrefetchAgent agent(&rig_.client(), options);
  agent.Start();
  EXPECT_TRUE(agent.finished());
  EXPECT_DOUBLE_EQ(agent.HitRate(), 0.0);
}

}  // namespace
}  // namespace odyssey
