// Unit tests for the discrete-event simulation kernel.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace odyssey {
namespace {

TEST(TimeTest, SecondsRoundTrip) {
  EXPECT_EQ(SecondsToDuration(1.0), kSecond);
  EXPECT_EQ(SecondsToDuration(0.001), kMillisecond);
  EXPECT_EQ(SecondsToDuration(0.0), 0);
  EXPECT_DOUBLE_EQ(DurationToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(DurationToMillis(kSecond), 1000.0);
}

TEST(TimeTest, SecondsToDurationRounds) {
  EXPECT_EQ(SecondsToDuration(1e-7), 0);       // below resolution
  EXPECT_EQ(SecondsToDuration(1.5e-6), 2);     // rounds to nearest
  EXPECT_EQ(SecondsToDuration(-1.5e-6), -2);   // symmetric for negatives
}

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(30, [&] { order.push_back(3); });
  queue.ScheduleAt(10, [&] { order.push_back(1); });
  queue.ScheduleAt(20, [&] { order.push_back(2); });
  Time when = 0;
  while (queue.RunNext(&when)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  Time when = 0;
  while (queue.RunNext(&when)) {
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  EventHandle handle = queue.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  Time when = 0;
  EXPECT_FALSE(queue.RunNext(&when));
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue queue;
  int fires = 0;
  EventHandle handle = queue.ScheduleAt(10, [&] { ++fires; });
  Time when = 0;
  EXPECT_TRUE(queue.RunNext(&when));
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // must not crash or affect anything
  EXPECT_EQ(fires, 1);
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // no-op
}

// A handle whose event fired or was cancelled must not reach the event that
// later reuses its slot: the free list is LIFO, so the next schedule takes
// exactly that slot, and only the generation tells the two apart.
TEST(EventQueueTest, StaleHandleCannotCancelTheSlotsNextEvent) {
  EventQueue queue;
  int cancelled_fires = 0;
  int fired_fires = 0;
  int fresh_fires = 0;
  EventHandle cancelled = queue.ScheduleAt(10, [&cancelled_fires] { ++cancelled_fires; });
  cancelled.Cancel();
  EventHandle reuser = queue.ScheduleAt(20, [&fired_fires] { ++fired_fires; });
  EXPECT_FALSE(cancelled.pending());
  cancelled.Cancel();
  EXPECT_TRUE(reuser.pending());

  Time when = 0;
  ASSERT_TRUE(queue.RunNext(&when));
  EventHandle fresh = queue.ScheduleAt(30, [&fresh_fires] { ++fresh_fires; });
  EXPECT_FALSE(reuser.pending());
  reuser.Cancel();
  cancelled.Cancel();
  EXPECT_TRUE(fresh.pending());
  while (queue.RunNext(&when)) {
  }
  EXPECT_EQ(cancelled_fires, 0);
  EXPECT_EQ(fired_fires, 1);
  EXPECT_EQ(fresh_fires, 1);
}

// Handles may outlive their queue (a component's member handle destroyed
// after the simulation): every copy then reads as not pending, and Cancel
// touches nothing of the destroyed queue.
TEST(EventQueueTest, HandleOutlivingItsQueueIsInert) {
  EventHandle handle;
  EventHandle copy;
  {
    EventQueue queue;
    handle = queue.ScheduleAt(10, [] {});
    copy = handle;
    EXPECT_TRUE(copy.pending());
  }
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(copy.pending());
  handle.Cancel();
  copy.Cancel();
}

// The running callback is moved out of the slab first, so it may schedule
// enough events to reallocate the slab under itself; the new events still
// pop in (when, seq) order.
TEST(EventQueueTest, CallbackMayGrowTheSlabWhileItRuns) {
  EventQueue queue;
  constexpr int kEvents = 1000;
  std::vector<int> order;
  queue.ScheduleAt(1, [&queue, &order] {
    for (int i = 0; i < kEvents; ++i) {
      queue.ScheduleAt(2 + i % 7, [&order, i] { order.push_back(i); });
    }
    order.push_back(-1);
  });
  Time when = 0;
  while (queue.RunNext(&when)) {
  }
  std::vector<int> expected = {-1};
  for (int t = 0; t < 7; ++t) {
    for (int i = t; i < kEvents; i += 7) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

// Counts live instances of itself, so a leaked or doubly destroyed copy
// leaves the tally off zero.
class Tracked {
 public:
  explicit Tracked(int* live) : live_(live) { ++*live_; }
  Tracked(const Tracked& other) : live_(other.live_) { ++*live_; }
  Tracked(Tracked&& other) noexcept : live_(other.live_) { ++*live_; }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --*live_; }

 private:
  int* live_;
};

// A capture larger than the inline buffer is boxed on the heap: it still
// fires exactly once, and exactly one instance of it is alive until it
// fires, is cancelled, or dies with its queue.
TEST(EventQueueTest, OversizedCaptureFiresOnceAndIsDestroyedOnce) {
  using Pad = std::array<char, 2 * EventQueue::Callback::kInlineSize>;
  int live = 0;
  int fires = 0;
  const auto oversized = [&live, &fires] {
    return [tracked = Tracked(&live), pad = Pad{}, &fires] {
      (void)pad;
      ++fires;
    };
  };
  static_assert(sizeof(oversized()) > EventQueue::Callback::kInlineSize);
  {
    EventQueue queue;
    queue.ScheduleAt(10, oversized());
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);  // died with its queue, unfired
  EXPECT_EQ(fires, 0);

  EventQueue queue;
  queue.ScheduleAt(10, oversized());
  EventHandle cancelled = queue.ScheduleAt(20, oversized());
  EXPECT_EQ(live, 2);
  cancelled.Cancel();
  EXPECT_EQ(live, 1);  // a cancelled callback is destroyed at once
  Time when = 0;
  while (queue.RunNext(&when)) {
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(live, 0);
}

TEST(EventQueueTest, PeekSkipsTombstones) {
  EventQueue queue;
  EventHandle early = queue.ScheduleAt(10, [] {});
  queue.ScheduleAt(20, [] {});
  early.Cancel();
  Time when = 0;
  ASSERT_TRUE(queue.PeekTime(&when));
  EXPECT_EQ(when, 20);
}

// One audit record per consecutively fired same-timestamp pair, carrying
// the tie-break key (when, prev_seq, seq) the determinism oracle checks.
TEST(EventQueueTest, TieObserverReportsSameTimePairs) {
  EventQueue queue;
  struct Pair {
    Time when;
    uint64_t prev_seq;
    uint64_t seq;
  };
  std::vector<Pair> pairs;
  queue.set_tie_observer([&pairs](Time when, uint64_t prev_seq, uint64_t seq) {
    pairs.push_back({when, prev_seq, seq});
  });
  queue.PostAt(5, [] {});   // seq 0
  queue.PostAt(5, [] {});   // seq 1
  queue.PostAt(5, [] {});   // seq 2
  queue.PostAt(10, [] {});  // seq 3
  queue.PostAt(10, [] {});  // seq 4
  queue.PostAt(20, [] {});  // seq 5: lone timestamp, never reported
  Time when = 0;
  while (queue.RunNext(&when)) {
  }
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].when, 5);
  EXPECT_EQ(pairs[0].prev_seq, 0u);
  EXPECT_EQ(pairs[0].seq, 1u);
  EXPECT_EQ(pairs[1].when, 5);
  EXPECT_EQ(pairs[1].prev_seq, 1u);
  EXPECT_EQ(pairs[1].seq, 2u);
  EXPECT_EQ(pairs[2].when, 10);
  EXPECT_EQ(pairs[2].prev_seq, 3u);
  EXPECT_EQ(pairs[2].seq, 4u);
}

// Distinct timestamps never produce audit records, even back-to-back, and
// clearing the observer stops the audit without disturbing pop order.
TEST(EventQueueTest, TieObserverSilentAcrossDistinctTimes) {
  EventQueue queue;
  int reports = 0;
  queue.set_tie_observer([&reports](Time, uint64_t, uint64_t) { ++reports; });
  std::vector<int> order;
  queue.PostAt(1, [&order] { order.push_back(1); });
  queue.PostAt(2, [&order] { order.push_back(2); });
  queue.PostAt(3, [&order] { order.push_back(3); });
  Time when = 0;
  while (queue.RunNext(&when)) {
  }
  EXPECT_EQ(reports, 0);
  queue.set_tie_observer({});  // detach: same-time events below go unaudited
  queue.PostAt(4, [&order] { order.push_back(4); });
  queue.PostAt(4, [&order] { order.push_back(5); });
  while (queue.RunNext(&when)) {
  }
  EXPECT_EQ(reports, 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

#ifdef ODYSSEY_FUZZ_SELFTEST
// The seeded tie-break-removal mutation: same-timestamp events pop
// newest-first, which the tie observer surfaces as inverted seq pairs.
// This is the signal the same-time-order oracle must convert into a
// violation (check_test.cc covers that half).
TEST(EventQueueTest, SelftestLifoTiesInvertsSameTimePops) {
  EventQueue queue;
  queue.set_selftest_lifo_ties(true);
  std::vector<int> order;
  bool inverted = false;
  queue.set_tie_observer([&inverted](Time, uint64_t prev_seq, uint64_t seq) {
    if (seq <= prev_seq) {
      inverted = true;
    }
  });
  for (int i = 0; i < 4; ++i) {
    queue.PostAt(7, [&order, i] { order.push_back(i); });
  }
  Time when = 0;
  while (queue.RunNext(&when)) {
  }
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
  EXPECT_TRUE(inverted);
}
#endif  // ODYSSEY_FUZZ_SELFTEST

TEST(SimulationTest, ClockAdvancesWithEvents) {
  Simulation sim;
  Time seen = -1;
  sim.Schedule(5 * kSecond, [&] { seen = sim.now(); });
  sim.Run();
  EXPECT_EQ(seen, 5 * kSecond);
  EXPECT_EQ(sim.now(), 5 * kSecond);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  bool ran = false;
  sim.Schedule(kSecond, [&] {
    sim.Schedule(-5, [&] { ran = true; });
  });
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), kSecond);
}

TEST(SimulationTest, RunUntilStopsAtDeadlineAndSetsClock) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1 * kSecond, [&] { ++fired; });
  sim.Schedule(10 * kSecond, [&] { ++fired; });
  sim.RunUntil(5 * kSecond);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5 * kSecond);
  sim.RunUntil(20 * kSecond);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, StepRunsOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1, [&] { ++fired; });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulationTest, EventsScheduledDuringRunExecute) {
  Simulation sim;
  std::vector<Time> times;
  sim.Schedule(kSecond, [&] {
    times.push_back(sim.now());
    sim.Schedule(kSecond, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], kSecond);
  EXPECT_EQ(times[1], 2 * kSecond);
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntBounded) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sumsq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal(5.0, 2.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, JitterFactorStaysPositive) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.JitterFactor(0.5), 0.0);
  }
}

}  // namespace
}  // namespace odyssey
