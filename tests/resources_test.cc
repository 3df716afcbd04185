// Tests for the extended resource management (battery, money, disk cache)
// and the file warden's consistency-as-fidelity dimension.

#include <gtest/gtest.h>

#include "src/apps/bitstream_app.h"
#include "src/core/battery_model.h"
#include "src/core/cache_manager.h"
#include "src/core/money_meter.h"
#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/servers/file_server.h"
#include "src/strategies/laissez_faire.h"
#include "src/wardens/file_warden.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;
constexpr double kMb = 1024.0 * 1024.0;

// --- Battery ---

class BatteryTest : public ::testing::Test {
 protected:
  BatteryTest() : rig_(1, "odyssey") {
    app_ = rig_.client().RegisterApplication("app");
  }

  ExperimentRig rig_;
  AppId app_ = 0;
};

TEST_F(BatteryTest, DrainsWithTime) {
  BatteryModel::Config config;
  config.capacity_minutes = 10.0;
  BatteryModel battery(&rig_.sim(), &rig_.client().viceroy(), &rig_.link(), config);
  battery.Start();
  rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  rig_.sim().RunUntil(4 * kMinute);
  EXPECT_NEAR(battery.remaining_minutes(), 6.0, 0.2);
  EXPECT_NEAR(rig_.client().CurrentLevel(app_, ResourceId::kBatteryPower), 6.0, 0.2);
}

TEST_F(BatteryTest, NetworkTrafficCostsExtraLifetime) {
  BatteryModel::Config config;
  config.capacity_minutes = 100.0;
  config.network_minutes_per_mb = 1.0;
  BatteryModel battery(&rig_.sim(), &rig_.client().viceroy(), &rig_.link(), config);
  battery.Start();
  BitstreamApp stream(&rig_.client(), "bitstream");
  rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  stream.Start();
  rig_.sim().RunUntil(2 * kMinute);
  // Two minutes idle drain plus ~13 MB of traffic at a minute per MB.
  const double moved_mb = rig_.link().bytes_delivered() / kMb;
  EXPECT_GT(moved_mb, 10.0);
  EXPECT_NEAR(battery.remaining_minutes(), 100.0 - 2.0 - moved_mb, 1.0);
}

TEST_F(BatteryTest, LowBatteryFiresUpcall) {
  BatteryModel::Config config;
  config.capacity_minutes = 5.0;
  BatteryModel battery(&rig_.sim(), &rig_.client().viceroy(), &rig_.link(), config);
  battery.Start();
  double level_seen = -1.0;
  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kBatteryPower;
  descriptor.lower = 3.0;  // warn below three minutes remaining
  descriptor.handler = [&](RequestId, ResourceId, double level) { level_seen = level; };
  ASSERT_TRUE(rig_.client().Request(app_, descriptor).ok());
  rig_.Replay(MakeConstant(kHighBandwidth, kMinute), /*prime=*/false);
  rig_.sim().RunUntil(10 * kMinute);
  EXPECT_GE(level_seen, 0.0);
  EXPECT_LT(level_seen, 3.0);
}

TEST_F(BatteryTest, ExhaustsAtZeroAndStops) {
  BatteryModel::Config config;
  config.capacity_minutes = 1.0;
  BatteryModel battery(&rig_.sim(), &rig_.client().viceroy(), &rig_.link(), config);
  battery.Start();
  rig_.Replay(MakeConstant(kHighBandwidth, kMinute), /*prime=*/false);
  rig_.sim().RunUntil(5 * kMinute);
  EXPECT_TRUE(battery.exhausted());
  EXPECT_DOUBLE_EQ(battery.remaining_minutes(), 0.0);
}

// --- Money ---

TEST(MoneyTest, ChargesPerMegabyte) {
  ExperimentRig rig(1, "odyssey");
  const AppId app = rig.client().RegisterApplication("app");
  MoneyMeter::Config config;
  config.budget_cents = 100.0;
  config.cents_per_mb = 2.0;
  MoneyMeter meter(&rig.sim(), &rig.client().viceroy(), &rig.link(), config);
  meter.Start();
  BitstreamApp stream(&rig.client(), "bitstream");
  rig.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  stream.Start();
  rig.sim().RunUntil(2 * kMinute);
  const double moved_mb = rig.link().bytes_delivered() / kMb;
  EXPECT_NEAR(meter.spent_cents(), moved_mb * 2.0, 0.5);
  EXPECT_NEAR(rig.client().CurrentLevel(app, ResourceId::kMoney), meter.remaining_cents(),
              1e-9);
}

TEST(MoneyTest, BudgetExhaustionFiresUpcall) {
  ExperimentRig rig(2, "odyssey");
  const AppId app = rig.client().RegisterApplication("app");
  MoneyMeter::Config config;
  config.budget_cents = 5.0;
  config.cents_per_mb = 1.0;
  MoneyMeter meter(&rig.sim(), &rig.client().viceroy(), &rig.link(), config);
  meter.Start();
  bool warned = false;
  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kMoney;
  descriptor.lower = 2.0;
  descriptor.handler = [&](RequestId, ResourceId, double) { warned = true; };
  ASSERT_TRUE(rig.client().Request(app, descriptor).ok());
  BitstreamApp stream(&rig.client(), "bitstream");
  rig.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  stream.Start();
  rig.sim().RunUntil(2 * kMinute);  // >5 MB moved, budget gone
  EXPECT_TRUE(warned);
  EXPECT_DOUBLE_EQ(meter.remaining_cents(), 0.0);
}

TEST(MoneyTest, TariffChangeTakesEffect) {
  ExperimentRig rig(3, "odyssey");
  MoneyMeter::Config config;
  config.budget_cents = 1000.0;
  config.cents_per_mb = 0.0;  // free WaveLAN
  MoneyMeter meter(&rig.sim(), &rig.client().viceroy(), &rig.link(), config);
  meter.Start();
  BitstreamApp stream(&rig.client(), "bitstream");
  rig.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  stream.Start();
  rig.sim().RunUntil(kMinute);
  EXPECT_NEAR(meter.spent_cents(), 0.0, 1e-9);
  meter.SetTariff(10.0);  // hand off to metered cellular
  rig.sim().RunUntil(2 * kMinute);
  EXPECT_GT(meter.spent_cents(), 10.0);
}

// --- Cache manager ---

TEST(CacheManagerTest, ReserveReleaseAccounting) {
  Simulation sim;
  Viceroy viceroy(&sim, std::make_unique<LaissezFaireStrategy>());
  CacheManager cache(&viceroy, 100.0);
  const AppId app = viceroy.RegisterApplication("app");
  EXPECT_DOUBLE_EQ(viceroy.CurrentLevel(app, ResourceId::kDiskCacheSpace), 100.0);
  EXPECT_TRUE(cache.Reserve(60.0));
  EXPECT_DOUBLE_EQ(cache.free_kb(), 40.0);
  EXPECT_FALSE(cache.Reserve(50.0));  // does not fit
  EXPECT_DOUBLE_EQ(cache.used_kb(), 60.0);
  cache.Release(30.0);
  EXPECT_TRUE(cache.Reserve(50.0));
  cache.Release(1000.0);  // over-release clamps
  EXPECT_DOUBLE_EQ(cache.used_kb(), 0.0);
  EXPECT_DOUBLE_EQ(viceroy.CurrentLevel(app, ResourceId::kDiskCacheSpace), 100.0);
}

TEST(CacheManagerTest, PressureFiresUpcall) {
  Simulation sim;
  Viceroy viceroy(&sim, std::make_unique<LaissezFaireStrategy>());
  CacheManager cache(&viceroy, 100.0);
  const AppId app = viceroy.RegisterApplication("app");
  bool squeezed = false;
  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kDiskCacheSpace;
  descriptor.lower = 20.0;
  descriptor.handler = [&](RequestId, ResourceId, double) { squeezed = true; };
  ASSERT_TRUE(viceroy.Request(app, descriptor).ok());
  ASSERT_TRUE(cache.Reserve(90.0));
  sim.Run();
  EXPECT_TRUE(squeezed);
}

// --- File warden: consistency as fidelity ---

class FileWardenTest : public ::testing::Test {
 protected:
  FileWardenTest()
      : rig_(1, "odyssey"),
        file_server_(&rig_.sim().rng()),
        cache_(&rig_.client().viceroy(), 64.0) {
    file_server_.Publish("etc/motd", 8.0 * kKb);
    file_server_.Publish("maps/campus", 32.0 * kKb);
    file_server_.Publish("big/archive", 512.0 * kKb);
    warden_ = static_cast<FileWarden*>(
        rig_.client().InstallWarden(std::make_unique<FileWarden>(&file_server_, &cache_)));
    app_ = rig_.client().RegisterApplication("reader");
    rig_.Replay(MakeConstant(kHighBandwidth, 30 * kMinute), /*prime=*/false);
  }

  std::string Path(const std::string& rel) { return std::string(kOdysseyRoot) + "files/" + rel; }

  FileReadReply ReadFile(const std::string& rel, Duration budget = 30 * kSecond) {
    FileReadReply reply;
    bool done = false;
    rig_.client().Tsop(app_, Path(rel), kFileRead, "", [&](Status status, std::string out) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      ASSERT_TRUE(UnpackStruct(out, &reply));
      done = true;
    });
    // Advance in small steps so the clock stops near the completion instant
    // (tests reason about elapsed time and validation TTLs).
    const Time deadline = rig_.sim().now() + budget;
    while (!done && rig_.sim().now() < deadline) {
      rig_.sim().RunUntil(rig_.sim().now() + 10 * kMillisecond);
    }
    EXPECT_TRUE(done);
    return reply;
  }

  void SetLevel(FileConsistency level) {
    rig_.client().Tsop(app_, Path(""), kFileSetConsistency,
                       PackStruct(FileSetConsistencyRequest{static_cast<int>(level)}),
                       [](Status, std::string) {});
  }

  FileWardenStats Stats() {
    FileWardenStats stats;
    rig_.client().Tsop(app_, Path(""), kFileStats, "",
                       [&](Status, std::string out) { EXPECT_TRUE(UnpackStruct(out, &stats)); });
    return stats;
  }

  ExperimentRig rig_;
  FileServer file_server_;
  CacheManager cache_;
  FileWarden* warden_ = nullptr;
  AppId app_ = 0;
};

TEST_F(FileWardenTest, FirstReadMissesThenHits) {
  SetLevel(FileConsistency::kOptimistic);
  const FileReadReply first = ReadFile("etc/motd");
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.version, 1u);
  const FileReadReply second = ReadFile("etc/motd");
  EXPECT_TRUE(second.cache_hit);
  const FileWardenStats stats = Stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.cache_hits, 1);
}

TEST_F(FileWardenTest, StrictSeesServerUpdatesImmediately) {
  SetLevel(FileConsistency::kStrict);
  EXPECT_EQ(ReadFile("etc/motd").version, 1u);
  ASSERT_TRUE(file_server_.Update("etc/motd").ok());
  const FileReadReply reply = ReadFile("etc/motd");
  EXPECT_EQ(reply.version, 2u);
  EXPECT_DOUBLE_EQ(reply.fidelity, 1.0);
  const FileWardenStats stats = Stats();
  EXPECT_GE(stats.validations, 1);
  EXPECT_EQ(stats.refetches, 1);
  EXPECT_EQ(stats.stale_serves, 0);
}

TEST_F(FileWardenTest, OptimisticServesStaleData) {
  SetLevel(FileConsistency::kOptimistic);
  EXPECT_EQ(ReadFile("etc/motd").version, 1u);
  ASSERT_TRUE(file_server_.Update("etc/motd").ok());
  const FileReadReply reply = ReadFile("etc/motd");
  EXPECT_EQ(reply.version, 1u);  // stale copy, knowingly
  EXPECT_DOUBLE_EQ(reply.fidelity, 0.3);
  EXPECT_EQ(Stats().stale_serves, 1);
}

TEST_F(FileWardenTest, PeriodicValidatesAfterTtl) {
  SetLevel(FileConsistency::kPeriodic);
  EXPECT_EQ(ReadFile("etc/motd").version, 1u);
  ASSERT_TRUE(file_server_.Update("etc/motd").ok());
  // Within the TTL the cached copy is trusted...
  EXPECT_EQ(ReadFile("etc/motd").version, 1u);
  // ...after the TTL the next read validates and refetches.
  rig_.sim().RunUntil(rig_.sim().now() + FileWarden::kPeriodicTtl + kSecond);
  EXPECT_EQ(ReadFile("etc/motd").version, 2u);
}

TEST_F(FileWardenTest, StrictCostsMoreTimeThanOptimistic) {
  SetLevel(FileConsistency::kStrict);
  ReadFile("etc/motd");  // warm
  const Time strict_start = rig_.sim().now();
  ReadFile("etc/motd");
  const Duration strict_cost = rig_.sim().now() - strict_start;

  SetLevel(FileConsistency::kOptimistic);
  const Time optimistic_start = rig_.sim().now();
  ReadFile("etc/motd");
  const Duration optimistic_cost = rig_.sim().now() - optimistic_start;
  // The strict read pays at least a validation round trip; the optimistic
  // read is local.  (Costs are measured as elapsed virtual time around the
  // synchronous RunUntil; the strict path must be visibly slower.)
  EXPECT_GT(strict_cost, optimistic_cost);
}

TEST_F(FileWardenTest, LruEvictionUnderCachePressure) {
  // The cache holds 64 KB; motd (8) + campus (32) fit, archive (512) never
  // does.
  SetLevel(FileConsistency::kOptimistic);
  ReadFile("etc/motd");
  ReadFile("maps/campus");
  EXPECT_NEAR(cache_.used_kb(), 40.0, 0.5);
  // The archive exceeds the whole cache: everything is evicted in the
  // attempt, and it is served uncached.
  ReadFile("big/archive", kMinute);
  EXPECT_GT(Stats().evictions, 0);
  EXPECT_NEAR(cache_.used_kb(), 0.0, 0.5);
  // Both small files now miss again.
  const FileReadReply motd = ReadFile("etc/motd");
  EXPECT_FALSE(motd.cache_hit);
}

TEST_F(FileWardenTest, AdaptiveLevelFollowsBandwidth) {
  EXPECT_EQ(FileWarden::AdaptiveLevel(kHighBandwidth), FileConsistency::kStrict);
  EXPECT_EQ(FileWarden::AdaptiveLevel(20.0 * kKb), FileConsistency::kPeriodic);
  EXPECT_EQ(FileWarden::AdaptiveLevel(4.0 * kKb), FileConsistency::kOptimistic);
  EXPECT_EQ(FileWarden::AdaptiveLevel(0.0), FileConsistency::kOptimistic);
}

TEST_F(FileWardenTest, ReadPathYieldsVersionedDescriptor) {
  SetLevel(FileConsistency::kStrict);
  std::string data;
  rig_.client().Read(app_, Path("etc/motd"), [&](Status status, std::string out) {
    ASSERT_TRUE(status.ok());
    data = std::move(out);
  });
  rig_.sim().RunUntil(rig_.sim().now() + 10 * kSecond);
  EXPECT_EQ(data, "file:etc/motd@v1");
}

TEST_F(FileWardenTest, UnknownFileFails) {
  Status status;
  rig_.client().Tsop(app_, Path("no/such"), kFileRead, "",
                     [&](Status s, std::string) { status = s; });
  rig_.sim().RunUntil(rig_.sim().now() + 5 * kSecond);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(FileWardenTest, BadConsistencyRejected) {
  Status status;
  rig_.client().Tsop(app_, Path(""), kFileSetConsistency,
                     PackStruct(FileSetConsistencyRequest{9}),
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FileServerTest, PublishUpdateStat) {
  Rng rng(1);
  FileServer server(&rng);
  server.Publish("a", 100.0);
  FileInfo info;
  ASSERT_TRUE(server.Stat("a", &info).ok());
  EXPECT_EQ(info.version, 1u);
  ASSERT_TRUE(server.Update("a").ok());
  ASSERT_TRUE(server.Stat("a", &info).ok());
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(server.Update("missing").code(), StatusCode::kNotFound);
  EXPECT_EQ(server.file_count(), 1u);
}

}  // namespace
}  // namespace odyssey
