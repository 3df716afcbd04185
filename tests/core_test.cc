// Unit tests for the Odyssey core: status, resources, tsop codec, upcall
// dispatch, the request table and its id map, and the viceroy.

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/id_map.h"
#include "src/core/request_table.h"
#include "src/core/resource.h"
#include "src/core/status.h"
#include "src/core/tsop_codec.h"
#include "src/core/upcall.h"
#include "src/core/viceroy.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/strategies/centralized.h"
#include "src/strategies/laissez_faire.h"

namespace odyssey {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  const Status status = NotFoundError("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kOutOfBounds, StatusCode::kNotFound,
        StatusCode::kInvalidArgument, StatusCode::kUnsupported, StatusCode::kAlreadyExists,
        StatusCode::kUnavailable}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResourceTest, Figure3cTableComplete) {
  // Figure 3(c): six generic resources with their units.
  EXPECT_EQ(std::size(kAllResources), 6u);
  EXPECT_STREQ(ResourceUnit(ResourceId::kNetworkBandwidth), "bytes/second");
  EXPECT_STREQ(ResourceUnit(ResourceId::kNetworkLatency), "microseconds");
  EXPECT_STREQ(ResourceUnit(ResourceId::kDiskCacheSpace), "kilobytes");
  EXPECT_STREQ(ResourceUnit(ResourceId::kCpu), "SPECint95");
  EXPECT_STREQ(ResourceUnit(ResourceId::kBatteryPower), "minutes");
  EXPECT_STREQ(ResourceUnit(ResourceId::kMoney), "cents");
  for (const ResourceId resource : kAllResources) {
    EXPECT_STRNE(ResourceName(resource), "Unknown");
  }
}

TEST(TsopCodecTest, RoundTripsPodStruct) {
  struct Sample {
    int a;
    double b;
  };
  const std::string packed = PackStruct(Sample{7, 2.5});
  Sample out{};
  ASSERT_TRUE(UnpackStruct(packed, &out));
  EXPECT_EQ(out.a, 7);
  EXPECT_DOUBLE_EQ(out.b, 2.5);
}

TEST(TsopCodecTest, RejectsSizeMismatch) {
  struct Sample {
    int a;
  };
  Sample out{};
  EXPECT_FALSE(UnpackStruct("wrong size", &out));
  EXPECT_FALSE(UnpackStruct("", &out));
}

// --- Upcall dispatcher ---

TEST(UpcallTest, DeliversWithParameters) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  RequestId seen_request = 0;
  ResourceId seen_resource = ResourceId::kMoney;
  double seen_level = 0.0;
  dispatcher.Post(1, 42, ResourceId::kNetworkBandwidth, 1234.0,
                  [&](RequestId request, ResourceId resource, double level) {
                    seen_request = request;
                    seen_resource = resource;
                    seen_level = level;
                  });
  sim.Run();
  EXPECT_EQ(seen_request, 42u);
  EXPECT_EQ(seen_resource, ResourceId::kNetworkBandwidth);
  EXPECT_DOUBLE_EQ(seen_level, 1234.0);
  EXPECT_EQ(dispatcher.delivered_count(), 1u);
}

TEST(UpcallTest, InOrderPerReceiver) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    dispatcher.Post(1, i, ResourceId::kNetworkBandwidth, 0.0,
                    [&order, i](RequestId, ResourceId, double) { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(dispatcher.last_delivered_seq(1), 5u);
}

TEST(UpcallTest, ExactlyOnce) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  int count = 0;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) { ++count; });
  sim.Run();
  sim.Run();  // draining again must not redeliver
  EXPECT_EQ(count, 1);
}

TEST(UpcallTest, NotDeliveredSynchronously) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  bool delivered = false;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) { delivered = true; });
  EXPECT_FALSE(delivered);  // queued, not run re-entrantly
  sim.Run();
  EXPECT_TRUE(delivered);
}

TEST(UpcallTest, BlockHoldsAndUnblockDrainsInOrder) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  std::vector<int> order;
  dispatcher.Block(1);
  EXPECT_TRUE(dispatcher.blocked(1));
  for (int i = 0; i < 3; ++i) {
    dispatcher.Post(1, i, ResourceId::kNetworkBandwidth, 0.0,
                    [&order, i](RequestId, ResourceId, double) { order.push_back(i); });
  }
  sim.Run();
  EXPECT_TRUE(order.empty());
  dispatcher.Unblock(1);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(UpcallTest, HandlerMayPostMore) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  std::vector<int> order;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) {
                    order.push_back(1);
                    dispatcher.Post(1, 2, ResourceId::kNetworkBandwidth, 0.0,
                                    [&](RequestId, ResourceId, double) { order.push_back(2); });
                  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(UpcallTest, IndependentQueuesPerApp) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  dispatcher.Block(1);
  bool app2_delivered = false;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0, nullptr);
  dispatcher.Post(2, 2, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) { app2_delivered = true; });
  sim.Run();
  EXPECT_TRUE(app2_delivered);  // app 2 unaffected by app 1's block
  EXPECT_EQ(dispatcher.last_delivered_seq(1), 0u);
}

TEST(UpcallTest, DeliveryLatencyApplied) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim, 5 * kMillisecond);
  Time delivered_at = -1;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, 5 * kMillisecond);
}

// --- Request table ---

// RequestTable::TakeViolated into a fresh buffer.
std::vector<RequestTable::Entry> TakeViolated(RequestTable& table, ResourceId resource, AppId app,
                                              double level) {
  std::vector<RequestTable::Entry> out;
  table.TakeViolated(resource, app, level, &out);
  return out;
}

TEST(RequestTableTest, RegisterAndCancel) {
  RequestTable table;
  const RequestId id = table.Register(1, ResourceDescriptor{});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Cancel(id).ok());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Cancel(id).code(), StatusCode::kNotFound);
}

TEST(RequestTableTest, TakeViolatedConsumesOnlyViolations) {
  RequestTable table;
  ResourceDescriptor in_window{ResourceId::kNetworkBandwidth, 0.0, 100.0, nullptr};
  ResourceDescriptor narrow{ResourceId::kNetworkBandwidth, 50.0, 60.0, nullptr};
  table.Register(1, in_window);
  const RequestId narrow_id = table.Register(1, narrow);
  const auto violated = TakeViolated(table, ResourceId::kNetworkBandwidth, 1, 75.0);
  ASSERT_EQ(violated.size(), 1u);
  EXPECT_EQ(violated[0].id, narrow_id);
  EXPECT_EQ(table.size(), 1u);  // the satisfied window remains
}

TEST(RequestTableTest, TakeViolatedScopedToAppAndResource) {
  RequestTable table;
  ResourceDescriptor descriptor{ResourceId::kNetworkBandwidth, 50.0, 60.0, nullptr};
  table.Register(1, descriptor);
  table.Register(2, descriptor);
  descriptor.resource = ResourceId::kBatteryPower;
  table.Register(1, descriptor);
  EXPECT_TRUE(TakeViolated(table, ResourceId::kNetworkBandwidth, 3, 0.0).empty());
  EXPECT_EQ(TakeViolated(table, ResourceId::kNetworkBandwidth, 1, 0.0).size(), 1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(RequestTableTest, BoundaryLevelsAreInsideWindow) {
  RequestTable table;
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 50.0, 60.0, nullptr});
  EXPECT_TRUE(TakeViolated(table, ResourceId::kNetworkBandwidth, 1, 50.0).empty());
  EXPECT_TRUE(TakeViolated(table, ResourceId::kNetworkBandwidth, 1, 60.0).empty());
  EXPECT_EQ(TakeViolated(table, ResourceId::kNetworkBandwidth, 1, 49.999).size(), 1u);
}

TEST(RequestTableTest, EntriesForFilters) {
  RequestTable table;
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 0, 1, nullptr});
  table.Register(1, ResourceDescriptor{ResourceId::kMoney, 0, 1, nullptr});
  EXPECT_EQ(table.EntriesFor(1, ResourceId::kMoney).size(), 1u);
  EXPECT_TRUE(table.EntriesFor(2, ResourceId::kMoney).empty());
}

TEST(RequestTableTest, SlotReuseAfterCancelDropsStaleWindow) {
  RequestTable table;
  const RequestId first =
      table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 50.0, 60.0, nullptr});
  ASSERT_TRUE(table.Cancel(first).ok());
  // Re-registering reuses the freed slot; only the new window may be visible
  // anywhere — the interval index must not retain the cancelled bounds.
  const RequestId second =
      table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 200.0, 300.0, nullptr});
  EXPECT_NE(second, first);
  EXPECT_EQ(table.Cancel(first).code(), StatusCode::kNotFound);
  std::vector<AppId> apps;
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 250.0, &apps);
  EXPECT_TRUE(apps.empty());  // inside the new window
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 55.0, &apps);
  ASSERT_EQ(apps.size(), 1u);  // inside the *old* window, outside the new one
  EXPECT_EQ(apps[0], 1);
  const auto entries = table.EntriesFor(1, ResourceId::kNetworkBandwidth);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, second);
  EXPECT_EQ(entries[0].descriptor.lower, 200.0);
  const auto violated = TakeViolated(table, ResourceId::kNetworkBandwidth, 1, 55.0);
  ASSERT_EQ(violated.size(), 1u);
  EXPECT_EQ(violated[0].id, second);
  EXPECT_EQ(table.size(), 0u);
}

TEST(RequestTableTest, ClassScopedProbesDoNotCrossClasses) {
  RequestTable table;
  // App 1's windows live in class 1, app 2's in class 2.  A class-2 probe at
  // a level far above app 1's window must not sweep app 1 in — that
  // cross-class bleed is exactly what made whole-table idle-level probes
  // quadratic.
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 50.0, 100.0, nullptr}, 1);
  table.Register(2, ResourceDescriptor{ResourceId::kNetworkBandwidth, 150.0, 200.0, nullptr}, 2);
  std::vector<AppId> apps;
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 2, 300.0, &apps);
  ASSERT_EQ(apps.size(), 1u);  // only app 2, even though 300 > app 1's upper
  EXPECT_EQ(apps[0], 2);
  apps.clear();
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 1, 10.0, &apps);
  ASSERT_EQ(apps.size(), 1u);  // only app 1, even though 10 < app 2's lower
  EXPECT_EQ(apps[0], 1);
  apps.clear();
  // The class-less overload unions every class.
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 125.0, &apps);
  std::sort(apps.begin(), apps.end());
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0], 1);
  EXPECT_EQ(apps[1], 2);
}

TEST(RequestTableTest, ReclassifyMovesWindowsBetweenClasses) {
  RequestTable table;
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 50.0, 100.0, nullptr}, 1);
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 60.0, 90.0, nullptr}, 1);
  table.Reclassify(1, 2);
  std::vector<AppId> apps;
  // The old class is empty now; the new one answers for both windows.
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 1, 300.0, &apps);
  EXPECT_TRUE(apps.empty());
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 2, 300.0, &apps);
  EXPECT_EQ(apps.size(), 2u);
  apps.clear();
  // Probes stay exact after the move: a level inside both windows finds
  // nothing, one between them finds only the narrower window's owner.
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 2, 75.0, &apps);
  EXPECT_TRUE(apps.empty());
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 2, 55.0, &apps);
  EXPECT_EQ(apps.size(), 1u);
}

TEST(RequestTableTest, IdsStayUniqueAcrossSlotChurn) {
  RequestTable table;
  std::vector<RequestId> retired;
  for (int round = 0; round < 5; ++round) {
    const RequestId id =
        table.Register(7, ResourceDescriptor{ResourceId::kNetworkBandwidth, 0.0, 1.0, nullptr});
    for (const RequestId old : retired) {
      EXPECT_NE(id, old);
      // A stale handle from an earlier round never cancels the new occupant.
      EXPECT_EQ(table.Cancel(old).code(), StatusCode::kNotFound);
    }
    EXPECT_EQ(table.size(), 1u);
    ASSERT_TRUE(table.Cancel(id).ok());
    retired.push_back(id);
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(RequestTableTest, CancelOfIdZeroIsNotFound) {
  RequestTable table;
  EXPECT_EQ(table.Cancel(0).code(), StatusCode::kNotFound);
  for (int i = 0; i < 20; ++i) {
    table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 0.0, 1.0, nullptr});
  }
  // Id 0 is what a refused request carries; it never names a live window.
  EXPECT_EQ(table.Cancel(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(table.size(), 20u);
}

// Every operation of the table, seeded, against a reference that keeps the
// live windows in a vector and answers each query by scanning all of them.
TEST(RequestTableTest, MatchesBruteForceReferenceUnderSeededChurn) {
  struct Window {
    RequestId id;
    AppId app;
    ResourceId resource;
    double lower;
    double upper;
    uint32_t klass;
  };
  const auto violates = [](const Window& w, double level) {
    return level < w.lower || level > w.upper;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Bounds and levels share a coarse grid, so equal bounds, zero-width
  // windows and levels exactly on a bound all come up often.
  const double bounds[] = {-kInf, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, kInf};
  const double levels[] = {-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 35.0, 50.0, 60.0, 65.0, kInf};
  const ResourceId resources[] = {ResourceId::kNetworkBandwidth, ResourceId::kMoney};
  constexpr AppId kApps = 24;
  constexpr uint32_t kClasses = 5;

  SplitMix64 rng(20261017);
  const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng.Next() % n); };
  RequestTable table;
  std::vector<Window> live;  // ascending id: ids only grow
  std::vector<RequestId> consumed;
  RequestId last_id = 0;
  SplitMix64 probe_rng(7);
  int verdicts_violated = 0;
  int verdicts_inside = 0;

  for (int op = 0; op < 20000; ++op) {
    const ResourceId resource = resources[pick(std::size(resources))];
    const AppId app = 1 + pick(kApps);
    const double level = levels[pick(std::size(levels))];
    const size_t kind = pick(100);
    if (kind < 40) {
      double lower = bounds[pick(std::size(bounds))];
      double upper = bounds[pick(std::size(bounds))];
      if (lower > upper) {
        std::swap(lower, upper);
      }
      const auto klass = static_cast<uint32_t>(pick(kClasses));
      const ResourceDescriptor descriptor{resource, lower, upper, nullptr};
      const RequestId id = table.Register(app, descriptor, klass);
      ASSERT_GT(id, last_id);
      last_id = id;
      live.push_back(Window{id, app, resource, lower, upper, klass});
    } else if (kind < 52) {
      // Cancel a live, a consumed, an unknown or the zero id.
      RequestId id = 0;
      switch (pick(4)) {
        case 0:
          id = live.empty() ? 0 : live[pick(live.size())].id;
          break;
        case 1:
          id = consumed.empty() ? 0 : consumed[pick(consumed.size())];
          break;
        case 2:
          id = last_id + 1 + pick(1000);
          break;
        default:
          break;
      }
      auto it = live.begin();
      while (it != live.end() && it->id != id) {
        ++it;
      }
      const Status status = table.Cancel(id);
      if (it == live.end()) {
        ASSERT_EQ(status.code(), StatusCode::kNotFound) << "op " << op << " id " << id;
      } else {
        ASSERT_TRUE(status.ok()) << "op " << op << " id " << id;
        consumed.push_back(id);
        live.erase(it);
      }
    } else if (kind < 60) {
      const auto klass = static_cast<uint32_t>(pick(kClasses));
      table.Reclassify(app, klass);
      for (Window& w : live) {
        if (w.app == app) {
          w.klass = klass;
        }
      }
    } else if (kind < 75) {
      std::vector<RequestId> want;
      std::vector<Window> kept;
      for (const Window& w : live) {
        if (w.app == app && w.resource == resource && violates(w, level)) {
          want.push_back(w.id);
          consumed.push_back(w.id);
        } else {
          kept.push_back(w);
        }
      }
      live = std::move(kept);
      std::vector<RequestId> got;
      for (const RequestTable::Entry& entry : TakeViolated(table, resource, app, level)) {
        got.push_back(entry.id);
      }
      ASSERT_EQ(got, want) << "op " << op;  // both ascending
    } else {
      // Class-scoped or global probe, compared as sorted multisets.
      const bool scoped = kind < 88;
      const auto klass = static_cast<uint32_t>(pick(kClasses + 1));
      std::vector<AppId> want;
      for (const Window& w : live) {
        if (w.resource == resource && (!scoped || w.klass == klass) && violates(w, level)) {
          want.push_back(w.app);
        }
      }
      std::vector<AppId> got;
      if (scoped) {
        table.CollectViolatedApps(resource, klass, level, &got);
      } else {
        table.CollectViolatedApps(resource, level, &got);
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "op " << op << " class " << klass << " level " << level;
    }
    ASSERT_EQ(table.size(), live.size()) << "op " << op;

    // The envelope's verdict is exactly "some window excludes the level",
    // checked against a brute-force scan of EntriesFor for the op's app and
    // one other, on both resources, at a grid level (often exactly on a
    // bound) and an off-grid one.  The probes draw from their own stream,
    // so the churn above is the same with or without them.
    for (const AppId probe_app : {app, static_cast<AppId>(1 + probe_rng.Next() % kApps)}) {
      for (const ResourceId probe_resource : resources) {
        const std::vector<RequestTable::Entry> entries = table.EntriesFor(probe_app, probe_resource);
        const double grid = levels[probe_rng.Next() % std::size(levels)];
        const double off_grid = static_cast<double>(probe_rng.Next() % 800) / 10.0 - 10.0;
        for (const double probe : {grid, off_grid}) {
          bool want = false;
          for (const RequestTable::Entry& entry : entries) {
            want = want || probe < entry.descriptor.lower || probe > entry.descriptor.upper;
          }
          ASSERT_EQ(table.IsViolated(probe_resource, probe_app, probe), want)
              << "op " << op << " app " << probe_app << " level " << probe;
          ++(want ? verdicts_violated : verdicts_inside);
        }
      }
    }
  }
  // The churn kept a real population, so the comparisons were not vacuous.
  EXPECT_GT(live.size(), 50u);
  EXPECT_GT(consumed.size(), 1000u);
  EXPECT_GT(verdicts_violated, 10000);
  EXPECT_GT(verdicts_inside, 10000);
}

// --- Flat id map ---

TEST(IdMapTest, EntryMovedOutByANewerIdStaysFindableAndErasable) {
  IdMap<int> map;
  map[1] = 10;
  const size_t capacity = map.capacity();
  const RequestId newer = 1 + capacity;  // same bucket as id 1
  map[newer] = 20;
  ASSERT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.stragglers(), 1u);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 10);
  ASSERT_NE(map.Find(newer), nullptr);
  EXPECT_EQ(*map.Find(newer), 20);
  EXPECT_EQ(map[1], 10);  // found in the side map, not re-inserted
  EXPECT_EQ(map.size(), 2u);

  EXPECT_TRUE(map.Erase(1));
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_FALSE(map.Erase(1));
  EXPECT_EQ(map.stragglers(), 0u);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(newer), nullptr);
  EXPECT_EQ(*map.Find(newer), 20);
}

TEST(IdMapTest, AbsentIdOlderThanItsBucketsOccupantLandsInTheSideMap) {
  IdMap<int> map;
  map[17] = 20;
  const size_t capacity = map.capacity();
  const RequestId older = 17 - capacity;  // same bucket as id 17
  ASSERT_GT(older, 0u);
  EXPECT_EQ(map.Find(older), nullptr);
  EXPECT_EQ(map[older], 0);  // value-initialised
  map[older] = 10;
  EXPECT_EQ(map.stragglers(), 1u);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(older), nullptr);
  EXPECT_EQ(*map.Find(older), 10);
  ASSERT_NE(map.Find(17), nullptr);
  EXPECT_EQ(*map.Find(17), 20);
  // The older id was the one moved out: erasing it empties the side map.
  EXPECT_TRUE(map.Erase(older));
  EXPECT_EQ(map.stragglers(), 0u);
  ASSERT_NE(map.Find(17), nullptr);
  EXPECT_EQ(*map.Find(17), 20);
}

TEST(IdMapTest, ErasingAStragglerWhoseBucketIsEmpty) {
  IdMap<int> map;
  map[1] = 10;
  const RequestId newer = 1 + map.capacity();
  map[newer] = 20;
  ASSERT_EQ(map.stragglers(), 1u);
  EXPECT_TRUE(map.Erase(newer));  // empties the bucket id 1 shares
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 10);
  EXPECT_TRUE(map.Erase(1));
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.stragglers(), 0u);
  // The emptied bucket takes an id again.
  map[1] = 30;
  EXPECT_EQ(map.stragglers(), 0u);
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 30);
}

TEST(IdMapTest, GrowthKeepsRingAndSideMapEntries) {
  IdMap<RequestId> map;
  map[1] = 3;
  const size_t capacity = map.capacity();
  const RequestId first_ring = 1 + capacity;
  for (RequestId id = first_ring; id < first_ring + capacity; ++id) {
    map[id] = 3 * id;
  }
  EXPECT_GT(map.capacity(), capacity);
  EXPECT_LE(2 * map.size(), map.capacity());
  EXPECT_EQ(map.stragglers(), 1u);  // only id 1 was ever moved out
  EXPECT_EQ(map.size(), capacity + 1);
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 3u);
  for (RequestId id = first_ring; id < first_ring + capacity; ++id) {
    ASSERT_NE(map.Find(id), nullptr) << id;
    EXPECT_EQ(*map.Find(id), 3 * id);
  }
  for (RequestId id = 2; id < first_ring; ++id) {
    EXPECT_EQ(map.Find(id), nullptr) << id;
  }
}

// The structure's cost must not depend on how old the live ids are: ids
// that are never erased while 100k newer ids slide past them each move to
// the side map exactly once, and the sliding ids never follow them there.
TEST(IdMapTest, StragglersMoveOutOnceWhileTheLiveRangeSlides) {
  constexpr RequestId kIds = 100000;
  // Sliding ids alive at once.
  constexpr RequestId kLive = 64;
  // Stragglers are drawn from ids 1..kStragglerSpan.
  constexpr RequestId kStragglerSpan = 30000;
  for (const RequestId stragglers : {0u, 10u, 1000u, 20000u}) {
    SCOPED_TRACE(stragglers);
    const RequestId stride = stragglers == 0 ? kIds + 1 : kStragglerSpan / stragglers;
    const auto is_straggler = [&](RequestId id) {
      return (id - 1) % stride == 0 && (id - 1) / stride < stragglers;
    };
    IdMap<RequestId> map;
    size_t peak = 0;
    for (RequestId id = 1; id <= kIds; ++id) {
      map[id] = 7 * id;
      peak = std::max(peak, map.size());
      const RequestId* found = map.Find(id);
      ASSERT_NE(found, nullptr) << id;
      ASSERT_EQ(*found, 7 * id);
      if (id > kLive && !is_straggler(id - kLive)) {
        ASSERT_TRUE(map.Erase(id - kLive)) << id - kLive;
      }
      ASSERT_LE(map.stragglers(), stragglers) << "a sliding id left the ring at " << id;
    }
    EXPECT_EQ(map.stragglers(), stragglers);
    EXPECT_EQ(map.size(), stragglers + kLive);
    EXPECT_LE(map.capacity(), 4 * peak);
    for (RequestId id = 1; id <= kIds; ++id) {
      const RequestId* found = map.Find(id);
      if (is_straggler(id) || id > kIds - kLive) {
        ASSERT_NE(found, nullptr) << id;
        EXPECT_EQ(*found, 7 * id);
      } else {
        ASSERT_EQ(found, nullptr) << id;
      }
    }
  }
}

TEST(IdMapTest, GrowthRehashKeepsEveryLiveEntry) {
  IdMap<RequestId> map;
  for (RequestId id = 1; id <= 5000; ++id) {
    map[id] = 3 * id;
  }
  for (RequestId id = 1; id <= 5000; id += 3) {
    ASSERT_TRUE(map.Erase(id));
  }
  const size_t capacity = map.capacity();
  for (RequestId id = 5001; id <= 20000; ++id) {
    map[id] = 3 * id;
  }
  EXPECT_GT(map.capacity(), capacity);
  EXPECT_LE(2 * map.size(), map.capacity());
  EXPECT_EQ(map.size(), 20000u - 1667u);
  for (RequestId id = 1; id <= 20000; ++id) {
    const RequestId* value = map.Find(id);
    if (id <= 5000 && id % 3 == 1) {
      EXPECT_EQ(value, nullptr) << id;
    } else {
      ASSERT_NE(value, nullptr) << id;
      EXPECT_EQ(*value, 3 * id);
    }
  }
}

TEST(IdMapTest, ErasingAnAbsentIdChangesNothing) {
  IdMap<int> map;
  EXPECT_FALSE(map.Erase(7));  // no buckets yet
  map[7] = 1;
  map[8] = 2;
  EXPECT_FALSE(map.Erase(9));
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 1);
  ASSERT_NE(map.Find(8), nullptr);
  EXPECT_EQ(*map.Find(8), 2);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Erase(7));
  EXPECT_EQ(map.size(), 1u);
}

TEST(IdMapTest, IdZeroIsNeverFound) {
  IdMap<int> map;
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_FALSE(map.Erase(0));
  // Id 0 marks an empty bucket; with live entries and empty buckets both
  // present it must still match nothing.
  for (RequestId id = 1; id <= 5; ++id) {
    map[id] = static_cast<int>(id);
  }
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_FALSE(map.Erase(0));
  EXPECT_EQ(map.size(), 5u);
  for (RequestId id = 1; id <= 5; ++id) {
    ASSERT_NE(map.Find(id), nullptr);
    EXPECT_EQ(*map.Find(id), static_cast<int>(id));
  }
}

// --- Viceroy ---

class ViceroyTest : public ::testing::Test {
 protected:
  ViceroyTest() : viceroy_(&sim_, std::make_unique<LaissezFaireStrategy>()) {}

  Simulation sim_;
  Viceroy viceroy_;
};

TEST_F(ViceroyTest, RegistersApplications) {
  const AppId a = viceroy_.RegisterApplication("alpha");
  const AppId b = viceroy_.RegisterApplication("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(viceroy_.ApplicationName(a), "alpha");
  EXPECT_EQ(viceroy_.ApplicationName(999), "<unknown>");
}

TEST_F(ViceroyTest, StaticResourcesHaveDefaults) {
  const AppId app = viceroy_.RegisterApplication("app");
  EXPECT_GT(viceroy_.CurrentLevel(app, ResourceId::kBatteryPower), 0.0);
  EXPECT_GT(viceroy_.CurrentLevel(app, ResourceId::kDiskCacheSpace), 0.0);
  EXPECT_GT(viceroy_.CurrentLevel(app, ResourceId::kCpu), 0.0);
  EXPECT_GT(viceroy_.CurrentLevel(app, ResourceId::kMoney), 0.0);
}

TEST_F(ViceroyTest, RequestWithinWindowRegisters) {
  const AppId app = viceroy_.RegisterApplication("app");
  ResourceDescriptor descriptor{ResourceId::kBatteryPower, 0.0, 1e9, nullptr};
  const RequestResult result = viceroy_.Request(app, descriptor);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.id, 0u);
  EXPECT_TRUE(viceroy_.Cancel(result.id).ok());
}

TEST_F(ViceroyTest, RequestOutsideWindowReturnsLevel) {
  // §4.2: "If the resource is currently outside the bounds of the tolerance
  // window, an error code and the current available resource level are
  // returned."
  const AppId app = viceroy_.RegisterApplication("app");
  ResourceDescriptor descriptor{ResourceId::kBatteryPower, 1e9, 2e9, nullptr};
  const RequestResult result = viceroy_.Request(app, descriptor);
  EXPECT_FALSE(result.ok());
  EXPECT_DOUBLE_EQ(result.current_level,
                   viceroy_.CurrentLevel(app, ResourceId::kBatteryPower));
}

TEST_F(ViceroyTest, StaticLevelChangeFiresUpcall) {
  const AppId app = viceroy_.RegisterApplication("app");
  double seen_level = -1.0;
  ResourceDescriptor descriptor{ResourceId::kBatteryPower, 100.0,
                                std::numeric_limits<double>::max(),
                                [&](RequestId, ResourceId, double level) { seen_level = level; }};
  ASSERT_TRUE(viceroy_.Request(app, descriptor).ok());
  viceroy_.SetStaticLevel(ResourceId::kBatteryPower, 50.0);  // battery draining
  sim_.Run();
  EXPECT_DOUBLE_EQ(seen_level, 50.0);
  // The registration was consumed: further changes are silent.
  seen_level = -1.0;
  viceroy_.SetStaticLevel(ResourceId::kBatteryPower, 10.0);
  sim_.Run();
  EXPECT_DOUBLE_EQ(seen_level, -1.0);
}

TEST_F(ViceroyTest, ChangeWithinWindowIsSilent) {
  const AppId app = viceroy_.RegisterApplication("app");
  bool fired = false;
  ResourceDescriptor descriptor{ResourceId::kMoney, 0.0, 100.0,
                                [&](RequestId, ResourceId, double) { fired = true; }};
  ASSERT_TRUE(viceroy_.Request(app, descriptor).ok());
  viceroy_.SetStaticLevel(ResourceId::kMoney, 20.0);
  sim_.Run();
  EXPECT_FALSE(fired);
}

TEST_F(ViceroyTest, CancelPreventsUpcall) {
  const AppId app = viceroy_.RegisterApplication("app");
  bool fired = false;
  ResourceDescriptor descriptor{ResourceId::kMoney, 10.0, 100.0,
                                [&](RequestId, ResourceId, double) { fired = true; }};
  const RequestResult result = viceroy_.Request(app, descriptor);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(viceroy_.Cancel(result.id).ok());
  viceroy_.SetStaticLevel(ResourceId::kMoney, 0.0);
  sim_.Run();
  EXPECT_FALSE(fired);
}

TEST_F(ViceroyTest, BandwidthAndLatencyNotSettable) {
  const AppId app = viceroy_.RegisterApplication("app");
  viceroy_.SetStaticLevel(ResourceId::kNetworkBandwidth, 1e6);
  EXPECT_DOUBLE_EQ(viceroy_.CurrentLevel(app, ResourceId::kNetworkBandwidth), 0.0);
}

TEST_F(ViceroyTest, UpcallsForTwoAppsIndependent) {
  const AppId a = viceroy_.RegisterApplication("a");
  const AppId b = viceroy_.RegisterApplication("b");
  int fired_a = 0;
  int fired_b = 0;
  ResourceDescriptor descriptor{ResourceId::kMoney, 10.0, 100.0, nullptr};
  descriptor.handler = [&](RequestId, ResourceId, double) { ++fired_a; };
  ASSERT_TRUE(viceroy_.Request(a, descriptor).ok());
  descriptor.handler = [&](RequestId, ResourceId, double) { ++fired_b; };
  ASSERT_TRUE(viceroy_.Request(b, descriptor).ok());
  viceroy_.SetStaticLevel(ResourceId::kMoney, 5.0);
  sim_.Run();
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
}

TEST(ViceroyClassTest, StaticLevelUpcallsFollowAppOrderAcrossWindowClasses) {
  // Over CentralizedStrategy a window's class is its owner's connection
  // count, so apps holding 2, 1 and 0 connections index their battery
  // windows in classes 2, 1 and 0.  Registered in descending app order,
  // the index holds them against app order in every class walk; one
  // SetStaticLevel must still upcall in ascending app id and skip the app
  // whose window holds.
  Simulation sim;
  Link link(&sim, 120.0 * 1024.0, 10 * kMillisecond);
  // Endpoints outlive the viceroy, whose strategy unsubscribes from them.
  Endpoint first(&sim, &link, "video:a");
  Endpoint second(&sim, &link, "web:b");
  Endpoint third(&sim, &link, "web:c");
  Viceroy viceroy(&sim, std::make_unique<CentralizedStrategy>(&sim));
  const AppId two = viceroy.RegisterApplication("two connections");
  const AppId one = viceroy.RegisterApplication("one connection");
  const AppId none = viceroy.RegisterApplication("no connections");
  const AppId holds = viceroy.RegisterApplication("window holds");
  viceroy.AttachConnection(two, &first);
  viceroy.AttachConnection(two, &second);
  viceroy.AttachConnection(one, &third);

  std::vector<AppId> order;
  for (const AppId app : {holds, none, one, two}) {
    const double lower = app == holds ? 0.0 : 100.0;
    ResourceDescriptor descriptor{ResourceId::kBatteryPower, lower,
                                  std::numeric_limits<double>::max(),
                                  [&order, app](RequestId, ResourceId, double) {
                                    order.push_back(app);
                                  }};
    ASSERT_TRUE(viceroy.Request(app, std::move(descriptor)).ok());
  }
  viceroy.SetStaticLevel(ResourceId::kBatteryPower, 50.0);
  sim.Run();
  EXPECT_EQ(order, (std::vector<AppId>{two, one, none}));
}

}  // namespace
}  // namespace odyssey
