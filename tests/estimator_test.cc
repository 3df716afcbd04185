// Unit tests for EWMA smoothing, usage accounting, per-connection
// estimation, and the centralized supply model (§6.2.1).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/estimator/connection_estimator.h"
#include "src/estimator/ewma.h"
#include "src/estimator/sliding_max.h"
#include "src/estimator/supply_model.h"
#include "src/estimator/usage_meter.h"
#include "src/sim/random.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

TEST(EwmaTest, FirstSampleInitializes) {
  EwmaFilter filter(0.5);
  EXPECT_FALSE(filter.has_value());
  filter.Update(10.0);
  EXPECT_TRUE(filter.has_value());
  EXPECT_DOUBLE_EQ(filter.value(), 10.0);
}

TEST(EwmaTest, WeightsNewestByAlpha) {
  EwmaFilter filter(0.75);
  filter.Update(0.0);
  filter.Update(100.0);
  EXPECT_DOUBLE_EQ(filter.value(), 75.0);
  filter.Update(100.0);
  EXPECT_DOUBLE_EQ(filter.value(), 93.75);
}

TEST(EwmaTest, PrimeSeedsWithoutObservation) {
  EwmaFilter filter(0.5);
  filter.Prime(42.0);
  EXPECT_TRUE(filter.has_value());
  filter.Update(0.0);
  EXPECT_DOUBLE_EQ(filter.value(), 21.0);
}

TEST(EwmaTest, ResetClears) {
  EwmaFilter filter(0.5);
  filter.Update(1.0);
  filter.Reset();
  EXPECT_FALSE(filter.has_value());
}

TEST(EwmaTest, AlphaOneTracksExactly) {
  EwmaFilter filter(1.0);
  filter.Update(5.0);
  filter.Update(9.0);
  EXPECT_DOUBLE_EQ(filter.value(), 9.0);
}

TEST(UsageMeterTest, SteadyConsumptionConvergesToRate) {
  UsageMeter meter(2 * kSecond);
  // 10 KB every 100 ms == 100 KB/s.
  for (int i = 0; i < 200; ++i) {
    meter.Record(i * 100 * kMillisecond, 10.0 * kKb);
  }
  EXPECT_NEAR(meter.RateAt(200 * 100 * kMillisecond), 100.0 * kKb, 5.0 * kKb);
}

TEST(UsageMeterTest, DecaysWhenIdle) {
  UsageMeter meter(kSecond);
  meter.Record(0, 100.0 * kKb);
  const double at_once = meter.RateAt(0);
  const double later = meter.RateAt(3 * kSecond);
  EXPECT_LT(later, at_once * 0.06);  // e^-3 ~ 0.05
}

TEST(UsageMeterTest, ActiveThreshold) {
  UsageMeter meter(kSecond);
  EXPECT_FALSE(meter.ActiveAt(0));
  meter.Record(0, 64.0 * kKb);
  EXPECT_TRUE(meter.ActiveAt(0));
  EXPECT_FALSE(meter.ActiveAt(20 * kSecond));
}

TEST(UsageMeterTest, IntervalDeliverySpreadsBytes) {
  UsageMeter meter(2 * kSecond);
  // 100 KB delivered over (0, 4s]: half of it lies in any trailing 2 s
  // window inside the transfer.
  meter.Record(0, 4 * kSecond, 100.0 * kKb);
  EXPECT_NEAR(meter.RateAt(4 * kSecond), 25.0 * kKb, 0.1 * kKb);
  EXPECT_NEAR(meter.RateAt(2 * kSecond), 25.0 * kKb, 0.1 * kKb);
  // A window straddling the end of the transfer sees a partial overlap.
  EXPECT_NEAR(meter.RateAt(5 * kSecond), 12.5 * kKb, 0.1 * kKb);
}

TEST(UsageMeterTest, BackToBackTransfersReadSteadyRate) {
  UsageMeter meter(2 * kSecond);
  // Continuous 40 KB/s: 20 KB windows covering (i*0.5, (i+1)*0.5].
  for (int i = 0; i < 40; ++i) {
    meter.Record(i * 500 * kMillisecond, (i + 1) * 500 * kMillisecond, 20.0 * kKb);
  }
  // Phase independence: any query instant reads 40 KB/s.
  for (Time at = 15 * kSecond; at <= 20 * kSecond; at += 333 * kMillisecond) {
    EXPECT_NEAR(meter.RateAt(at), 40.0 * kKb, 0.5 * kKb) << "at " << at;
  }
}

TEST(UsageMeterTest, ActiveThresholdIsStrictlyGreater) {
  UsageMeter meter(2 * kSecond);
  meter.Record(0, 32.0);  // 32 bytes over a 2 s window: exactly 16.0 B/s
  EXPECT_EQ(meter.RateAt(0), 16.0);
  EXPECT_FALSE(meter.ActiveAt(0));  // the fair-share threshold is strict
  meter.Record(0, 1.0);  // 16.5 B/s
  EXPECT_TRUE(meter.ActiveAt(0));
}

TEST(UsageMeterTest, EventExpiresExactlyOneTauAfterItsEnd) {
  UsageMeter meter(kSecond);
  meter.Record(0, 10.0);
  EXPECT_EQ(meter.RateAt(kSecond - 1), 10.0);
  EXPECT_FALSE(meter.empty());
  // At end + tau the event is fully left of the window and gets pruned.
  EXPECT_EQ(meter.RateAt(kSecond), 0.0);
  EXPECT_TRUE(meter.empty());
}

TEST(UsageMeterTest, RingGrowthPreservesWindowContents) {
  UsageMeter meter(2 * kSecond);
  double expected_bytes = 0.0;
  for (int i = 0; i < 21; ++i) {  // crosses the initial 8-slot capacity twice
    meter.Record(i * 10 * kMillisecond, static_cast<double>(i + 1));
    expected_bytes += static_cast<double>(i + 1);
  }
  EXPECT_EQ(meter.RateAt(20 * 10 * kMillisecond), expected_bytes / 2.0);
  EXPECT_EQ(meter.last_event(), 20 * 10 * kMillisecond);
}

TEST(UsageMeterTest, SlotReuseAfterPruneKeepsExactAccounting) {
  UsageMeter meter(kSecond);
  for (int i = 0; i < 8; ++i) {  // fill the initial ring exactly
    meter.Record(i * 100 * kMillisecond, 10.0);
  }
  // Reading far in the future prunes everything; the head has wrapped.
  EXPECT_EQ(meter.RateAt(10 * kSecond), 0.0);
  EXPECT_TRUE(meter.empty());
  // New events land in recycled slots; the window must account exactly.
  meter.Record(10 * kSecond, 11 * kSecond, 40.0);
  meter.Record(11 * kSecond, 5.0);
  EXPECT_EQ(meter.RateAt(11 * kSecond), 45.0);
  // Half the interval delivery has slid out of the window half a tau later.
  EXPECT_EQ(meter.RateAt(11 * kSecond + 500 * kMillisecond), 25.0);
}

// The usage meter as it was before the masked ring and the stored
// whole-window value: modulo ring indexing, and the pro-rata term computed
// for every event on every read.  RateAt and the ring are verbatim; the
// production meter must match it bit for bit.  The probes at the bottom
// only let the test confirm what its sequence covered.
class ReferenceUsageMeter {
 public:
  explicit ReferenceUsageMeter(Duration tau) : tau_(tau) {}

  void Record(Time start, Time end, double bytes) {
    if (end < start) {
      start = end;
    }
    PushBack(Event{start, end, bytes});
  }

  double RateAt(Time at) const {
    Prune(at);
    const Time window_start = at - tau_;
    double bytes_in_window = 0.0;
    for (size_t i = 0; i < count_; ++i) {
      const Event& event = ring_[Index(i)];
      if (event.start == event.end) {
        // Point delivery: counts fully if inside the window.
        if (event.start > window_start && event.start <= at) {
          bytes_in_window += event.bytes;
        }
        continue;
      }
      const Time lo = event.start > window_start ? event.start : window_start;
      const Time hi = event.end < at ? event.end : at;
      if (hi > lo) {
        bytes_in_window += event.bytes * static_cast<double>(hi - lo) /
                           static_cast<double>(event.end - event.start);
      }
    }
    return bytes_in_window / DurationToSeconds(tau_);
  }

  Time last_event() const { return count_ == 0 ? 0 : ring_[Index(count_ - 1)].end; }
  bool empty() const { return count_ == 0; }

  // Coverage probes, read after RateAt(at) pruned the ring.
  size_t capacity() const { return ring_.size(); }
  bool wrapped() const { return head_ + count_ > ring_.size(); }
  bool HasEventStraddling(Time at) const {
    for (size_t i = 0; i < count_; ++i) {
      const Event& event = ring_[Index(i)];
      if (event.start < at - tau_ && event.end > at - tau_) {
        return true;
      }
    }
    return false;
  }
  bool HasIntervalEndingAt(Time at) const {
    for (size_t i = 0; i < count_; ++i) {
      const Event& event = ring_[Index(i)];
      if (event.start < event.end && event.end == at) {
        return true;
      }
    }
    return false;
  }
  bool HeadStraddles(Time at) const {
    const Event& head = ring_[head_];
    return count_ > 0 && head.start < at - tau_ && head.end > at - tau_;
  }
  // A point delivery after |at|: never pruned by a read at |at| and outside
  // its window, so the read must take the general test, which leaves it out
  // (the start test alone would count it whole).
  bool HasPointAfter(Time at) const {
    for (size_t i = 0; i < count_; ++i) {
      const Event& event = ring_[Index(i)];
      if (event.start == event.end && event.end > at) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Event {
    Time start;
    Time end;
    double bytes;
  };

  size_t Index(size_t i) const { return (head_ + i) % ring_.size(); }

  void PushBack(const Event& event) {
    if (count_ == ring_.size()) {
      Grow();
    }
    ring_[(head_ + count_) % ring_.size()] = event;
    ++count_;
  }

  void Grow() {
    std::vector<Event> bigger(ring_.empty() ? 8 : ring_.size() * 2);
    for (size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[Index(i)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  void Prune(Time at) const {
    while (count_ > 0 && ring_[head_].end + tau_ <= at) {
      head_ = (head_ + 1) % ring_.size();
      --count_;
    }
  }

  Duration tau_;
  mutable std::vector<Event> ring_;
  mutable size_t head_ = 0;
  mutable size_t count_ = 0;
};

// A seeded mix of interval records, point records, inverted intervals
// (clamped to points) and reads, including reads before the newest end,
// then a scripted tail for the edges a random walk seldom lands on.
// Compares every rate as raw bits.  The meter sums by one of two tests:
// when every stored event ends at or before the read (the newest end is at
// most |at|) a start after the window's left edge alone means wholly
// inside; otherwise each event's end is tested too.  The probes confirm
// both ran over stored events.
TEST(UsageMeterTest, MatchesReferenceMeterBitForBit) {
  const Duration tau = 2 * kSecond;
  UsageMeter meter(tau);
  ReferenceUsageMeter reference(tau);
  Rng rng(23);
  Time now = 0;
  bool recorded_now = false;  // a record ended at |now| since time last moved
  size_t max_capacity = 0;
  bool wrapped_after_prune = false;
  bool straddled = false;
  bool ended_at_read = false;
  bool read_at_record = false;
  int all_ended_reads = 0;     // newest end <= at: the start test alone
  int before_newest_reads = 0;  // newest end > at: the full test
  bool straddling_head_all_ended = false;
  bool point_after_read = false;

  const auto record = [&](Time start, double bytes) {
    meter.Record(start, now, bytes);
    reference.Record(start, now, bytes);
    recorded_now = true;
    max_capacity = std::max(max_capacity, reference.capacity());
    wrapped_after_prune = wrapped_after_prune || reference.wrapped();
  };
  const auto read = [&](Time at) {
    point_after_read = point_after_read || reference.HasPointAfter(at);
    const double got = meter.RateAt(at);
    const double want = reference.RateAt(at);
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "at=" << at << " got=" << got << " want=" << want;
    ASSERT_EQ(meter.empty(), reference.empty());
    ASSERT_EQ(meter.last_event(), reference.last_event());
    straddled = straddled || reference.HasEventStraddling(at);
    ended_at_read = ended_at_read || reference.HasIntervalEndingAt(at);
    read_at_record = read_at_record || (at == now && recorded_now);
    if (!reference.empty() && reference.last_event() <= at) {
      ++all_ended_reads;
      straddling_head_all_ended = straddling_head_all_ended || reference.HeadStraddles(at);
    } else if (!reference.empty()) {
      ++before_newest_reads;
    }
  };
  const auto interval_start = [&] {
    // Up to 1.5 tau long, so many start left of a later read's window.
    return now - 1 - static_cast<Duration>(rng.UniformInt(3 * kSecond));
  };
  const auto bytes = [&] { return rng.Uniform(0.0, 64.0 * kKb); };

  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.UniformInt(100);
    if (op < 2) {
      // A burst with no read in between grows the ring past 8, 16 and 32.
      for (int i = 0; i < 40; ++i) {
        now += static_cast<Duration>(rng.UniformInt(20 * kMillisecond));
        record(interval_start(), bytes());
      }
    } else if (op < 35) {
      record(interval_start(), bytes());
    } else if (op < 50) {
      record(now, bytes());  // point delivery
    } else if (op < 53) {
      record(now + 1 + static_cast<Duration>(rng.UniformInt(kSecond)), bytes());
    } else if (op < 80) {
      read(now);
    } else if (op < 85) {
      read(now - static_cast<Duration>(rng.UniformInt(500 * kMillisecond)));
    } else if (op < 98) {
      now += static_cast<Duration>(rng.UniformInt(300 * kMillisecond));
      recorded_now = false;
    } else {
      // Idle past tau: the next read prunes the ring empty, and later
      // records reuse its slots from a moved head.
      now += tau + static_cast<Duration>(rng.UniformInt(2 * kSecond));
      recorded_now = false;
    }
    if (HasFatalFailure()) {
      return;
    }
  }

  // The scripted tail: after an idle gap, an interval (p - tau/2, p], a
  // point delivery at p, one a microsecond later, and an interval
  // (p + 1, p + tau/2].
  now += 2 * tau;
  const Time p = now;
  record(p - tau / 2, bytes());
  record(p, bytes());
  now = p + 1;
  record(now, bytes());
  now = p + tau / 2;
  record(p + 1, bytes());
  // Before the newest end: the full test, which leaves out the point at
  // p + 1, recorded after the read.
  read(p);
  read(p + tau / 4);
  // Every event has ended, and the head interval straddles the left edge
  // p - tau/4.
  read(p + 3 * tau / 4);
  // The point at p sits exactly on the open left edge and is pruned with
  // the head; the one at p + 1 is inside.
  read(p + tau);
  ASSERT_FALSE(HasFatalFailure());

  EXPECT_GE(max_capacity, 64u);  // grew past 8, 16 and 32 events
  EXPECT_TRUE(wrapped_after_prune);
  EXPECT_TRUE(straddled);
  EXPECT_TRUE(ended_at_read);
  EXPECT_TRUE(read_at_record);
  EXPECT_GT(all_ended_reads, 0);
  EXPECT_GT(before_newest_reads, 0);
  EXPECT_TRUE(straddling_head_all_ended);
  EXPECT_TRUE(point_after_read);
}

TEST(SlidingMaxTest, TracksMaximumInWindow) {
  SlidingMax sliding(2 * kSecond);
  EXPECT_FALSE(sliding.has_value());
  sliding.Push(0, 10.0);
  sliding.Push(kSecond, 5.0);
  EXPECT_DOUBLE_EQ(sliding.value(), 10.0);
  // The 10 ages out once the window slides past it.
  sliding.Push(3 * kSecond, 4.0);
  EXPECT_DOUBLE_EQ(sliding.value(), 5.0);
  sliding.Push(4 * kSecond, 1.0);
  EXPECT_DOUBLE_EQ(sliding.value(), 4.0);
}

TEST(SlidingMaxTest, RisesInstantly) {
  SlidingMax sliding(2 * kSecond);
  sliding.Push(0, 10.0);
  sliding.Push(1, 100.0);
  EXPECT_DOUBLE_EQ(sliding.value(), 100.0);
}

TEST(SlidingMaxTest, HoldsWithoutNewSamples) {
  // Anchored at the last push: passive estimation holds its last belief.
  SlidingMax sliding(2 * kSecond);
  sliding.Push(0, 42.0);
  EXPECT_DOUBLE_EQ(sliding.value(), 42.0);
  EXPECT_EQ(sliding.last_push(), 0);
}

TEST(SlidingMaxTest, ResetClears) {
  SlidingMax sliding(kSecond);
  sliding.Push(0, 1.0);
  sliding.Reset();
  EXPECT_FALSE(sliding.has_value());
  EXPECT_DOUBLE_EQ(sliding.value(), 0.0);
}

TEST(UsageMeterTest, ResetZeroes) {
  UsageMeter meter(kSecond);
  meter.Record(0, 100.0);
  meter.Reset();
  EXPECT_DOUBLE_EQ(meter.RateAt(0), 0.0);
}

TEST(ConnectionEstimatorTest, PrimedRttBeforeObservations) {
  ConnectionEstimator estimator;
  EXPECT_EQ(estimator.smoothed_rtt(), 21 * kMillisecond);
  EXPECT_FALSE(estimator.has_bandwidth());
  EXPECT_DOUBLE_EQ(estimator.bandwidth_bps(), 0.0);
}

TEST(ConnectionEstimatorTest, BandwidthFromWindowSubtractsRtt) {
  ConnectionEstimator estimator;
  // 64 KB window in 0.5 s + 21 ms of request/ack overhead.
  estimator.OnThroughput({kSecond, 64.0 * kKb, 521 * kMillisecond});
  EXPECT_NEAR(estimator.bandwidth_bps(), 128.0 * kKb, 1.0 * kKb);
  EXPECT_EQ(estimator.last_observation(), kSecond);
}

TEST(ConnectionEstimatorTest, SmoothingUsesThroughputAlpha) {
  ConnectionEstimator estimator;
  estimator.OnThroughput({0, 64.0 * kKb, 521 * kMillisecond});   // 128 KB/s
  estimator.OnThroughput({0, 64.0 * kKb, 1021 * kMillisecond});  // 64 KB/s
  // new = 0.875*64 + 0.125*128 = 72 KB/s
  EXPECT_NEAR(estimator.bandwidth_bps(), 72.0 * kKb, 1.0 * kKb);
}

TEST(ConnectionEstimatorTest, RttRiseCapLimitsAnomalies) {
  ConnectionEstimator estimator;  // primed at 21 ms, cap 50%
  estimator.OnRoundTrip({0, 1000 * kMillisecond});  // wild outlier
  // Capped at 21*1.5 = 31.5ms, then EWMA: 0.75*31.5 + 0.25*21 = 28.875.
  EXPECT_NEAR(static_cast<double>(estimator.smoothed_rtt()), 28875.0, 1.0);
}

TEST(ConnectionEstimatorTest, RttFallsFreely) {
  ConnectionEstimator estimator;  // primed at 21 ms
  estimator.OnRoundTrip({0, 1 * kMillisecond});
  // No cap on drops: 0.75*1 + 0.25*21 = 6 ms.
  EXPECT_NEAR(static_cast<double>(estimator.smoothed_rtt()), 6000.0, 1.0);
}

TEST(ConnectionEstimatorTest, CapDisabledWhenNonPositive) {
  EstimatorConfig config;
  config.rtt_rise_cap = 0.0;
  ConnectionEstimator estimator(config);
  estimator.OnRoundTrip({0, 1000 * kMillisecond});
  EXPECT_GT(estimator.smoothed_rtt(), 700 * kMillisecond);
}

TEST(ConnectionEstimatorTest, TinyWindowDoesNotExplode) {
  ConnectionEstimator estimator;
  // Window completed in about one RTT: effective transfer time floors.
  estimator.OnThroughput({0, 1.0 * kKb, 21 * kMillisecond});
  EXPECT_LT(estimator.bandwidth_bps(), 1.0 * kKb / 0.0001 + 1.0);
  EXPECT_GT(estimator.bandwidth_bps(), 0.0);
}

// --- Supply model ---

class SupplyModelTest : public ::testing::Test {
 protected:
  // Feeds a steady stream of windows on |connection| observing |raw_bps|,
  // one per |period|, from |start| for |count| windows.
  void FeedSteady(ConnectionId connection, double raw_bps, Time start, int count,
                  Duration period = 500 * kMillisecond) {
    for (int i = 0; i < count; ++i) {
      const Time at = start + i * period;
      const double bytes = raw_bps * DurationToSeconds(period);
      // elapsed = transfer time + smoothed rtt so the raw estimate ~raw_bps.
      const Duration elapsed = period + 21 * kMillisecond;
      model_.OnThroughput(connection, {at, bytes, elapsed});
    }
  }

  SupplyModel model_;
};

TEST_F(SupplyModelTest, SingleConnectionSupplyTracksObservedRate) {
  model_.AddConnection(1);
  FeedSteady(1, 120.0 * kKb, 0, 20);
  EXPECT_NEAR(model_.TotalSupply(), 120.0 * kKb, 6.0 * kKb);
}

TEST_F(SupplyModelTest, TwoConcurrentStreamsSumToCapacity) {
  model_.AddConnection(1);
  model_.AddConnection(2);
  // Both observe 60 KB/s concurrently (sharing a 120 KB/s link).
  for (int i = 0; i < 40; ++i) {
    const Time at = i * 500 * kMillisecond;
    const double bytes = 30.0 * kKb;
    model_.OnThroughput(1, {at, bytes, 521 * kMillisecond});
    model_.OnThroughput(2, {at + 10 * kMillisecond, bytes, 521 * kMillisecond});
  }
  EXPECT_NEAR(model_.TotalSupply(), 120.0 * kKb, 12.0 * kKb);
}

TEST_F(SupplyModelTest, AvailabilityFairShareForNewConnection) {
  model_.AddConnection(1);
  model_.AddConnection(2);
  FeedSteady(1, 120.0 * kKb, 0, 20);
  const Time now = 20 * 500 * kMillisecond;
  // Connection 2 has no recent use: it gets the fair share of one more
  // active connection joining.
  const double availability = model_.AvailabilityFor(2, now);
  EXPECT_NEAR(availability, model_.TotalSupply() / 2.0, 2.0 * kKb);
}

TEST_F(SupplyModelTest, HeadroomSplitsProportionallyToUse) {
  model_.AddConnection(1);
  model_.AddConnection(2);
  // Both connections burst at ~100 KB/s link rate but consume different
  // long-run rates (50 vs 10 KB/s), leaving headroom to compete for.
  for (int i = 0; i < 40; ++i) {
    const Time at = i * kSecond;
    model_.OnThroughput(1, {at, 50.0 * kKb, 521 * kMillisecond});
    model_.OnThroughput(2, {at + 100 * kMillisecond, 10.0 * kKb, 121 * kMillisecond});
  }
  const Time now = 40 * kSecond;
  const double a1 = model_.AvailabilityFor(1, now);
  const double a2 = model_.AvailabilityFor(2, now);
  const double supply = model_.TotalSupply();
  EXPECT_GT(a1, a2);                       // heavier user gets more headroom
  EXPECT_GE(a2, supply / 2.0 - kKb);       // floor: fair share
  EXPECT_LE(a1, supply + 1.0);             // cap: never more than the supply
}

TEST_F(SupplyModelTest, SaturatedLinkYieldsFairSharesOnly) {
  model_.AddConnection(1);
  model_.AddConnection(2);
  // Two saturating streams each observe ~60 KB/s of a 120 KB/s link; all
  // capacity is in use, so there is no headroom to compete for.
  for (int i = 0; i < 40; ++i) {
    const Time at = i * 500 * kMillisecond;
    model_.OnThroughput(1, {at, 30.0 * kKb, 521 * kMillisecond});
    model_.OnThroughput(2, {at + 10 * kMillisecond, 30.0 * kKb, 521 * kMillisecond});
  }
  // Sample at the final observation: the streams are still flowing there.
  const Time now = 39 * 500 * kMillisecond + 10 * kMillisecond;
  EXPECT_NEAR(model_.AvailabilityFor(1, now), model_.TotalSupply() / 2.0, 3.0 * kKb);
  EXPECT_NEAR(model_.AvailabilityFor(2, now), model_.TotalSupply() / 2.0, 3.0 * kKb);
}

TEST_F(SupplyModelTest, UnknownConnectionGetsFairShare) {
  model_.AddConnection(1);
  FeedSteady(1, 100.0 * kKb, 0, 20);
  const double availability = model_.AvailabilityFor(99, 10 * kSecond);
  EXPECT_NEAR(availability, model_.TotalSupply() / 2.0, 2.0 * kKb);
}

TEST_F(SupplyModelTest, NoSupplyMeansZeroAvailability) {
  model_.AddConnection(1);
  EXPECT_DOUBLE_EQ(model_.AvailabilityFor(1, 0), 0.0);
}

TEST_F(SupplyModelTest, RemoveConnectionForgetsIt) {
  model_.AddConnection(1);
  FeedSteady(1, 100.0 * kKb, 0, 5);
  model_.RemoveConnection(1);
  EXPECT_EQ(model_.EstimatorFor(1), nullptr);
  // Observations for removed connections are ignored.
  model_.OnThroughput(1, {10 * kSecond, 1000.0, kSecond});
  EXPECT_EQ(model_.EstimatorFor(1), nullptr);
}

TEST_F(SupplyModelTest, ActiveCountDropsWithIdleness) {
  model_.AddConnection(1);
  model_.AddConnection(2);
  // Interleave the feeds: observations reach the model in global time order,
  // as the event loop delivers them.
  for (int i = 0; i < 10; ++i) {
    FeedSteady(1, 100.0 * kKb, i * 500 * kMillisecond, 1);
    FeedSteady(2, 100.0 * kKb, i * 500 * kMillisecond, 1);
  }
  const Time busy = 10 * 500 * kMillisecond;
  EXPECT_EQ(model_.ActiveConnectionCount(busy), 2);
  // After 30 s of silence both decayed; count floors at 1.
  EXPECT_EQ(model_.ActiveConnectionCount(busy + 30 * kSecond), 1);
}

// Mutations at the instant the model already answered for must refresh the
// terms every connection's answer shares (supply, fair shares, slack).
// OnFailure moves the supply and AddConnection the registered count
// without touching the scan cache's version, so a memo keyed on that
// version would serve stale shares here.  Every answer is compared with the
// naive model as raw bits, and each step's scan_ops with the model's
// accounting: one op per query while the supply is positive, plus one per
// live connection whenever a query or an observation rescans.
TEST_F(SupplyModelTest, SameInstantMutationsRefreshSharedTerms) {
  NaiveSupplyModel naive;
  const auto both = [&](const auto& mutate) {
    mutate(static_cast<SupplyModelInterface&>(model_));
    mutate(static_cast<SupplyModelInterface&>(naive));
  };
  const Time now = 10 * kSecond;
  both([](SupplyModelInterface& m) {
    for (const ConnectionId id : {1, 2, 3}) {
      m.AddConnection(id);
    }
    // A large sample that ages out of the supply window by |now|, and a
    // smaller one whose usage is still live then.
    m.OnThroughput(1, {now - 3 * kSecond, 96.0 * kKb, 250 * kMillisecond});
    m.OnThroughput(2, {now - kSecond, 24.0 * kKb, 500 * kMillisecond});
  });

  std::vector<uint64_t> previous;
  const auto ask_all = [&](const char* step, uint64_t want_ops, bool moves = true) {
    SCOPED_TRACE(step);
    const uint64_t before = model_.scan_ops();
    std::vector<uint64_t> answers;
    for (ConnectionId id = 0; id <= 5; ++id) {  // 0 never names a connection
      const double got = model_.AvailabilityFor(id, now);
      const double want = naive.AvailabilityFor(id, now);
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want)) << "connection " << id;
      EXPECT_GT(got, 0.0);
      answers.push_back(std::bit_cast<uint64_t>(got));
    }
    EXPECT_EQ(model_.scan_ops() - before, want_ops);
    if (moves) {
      EXPECT_NE(answers, previous);
    }
    previous = answers;
  };

  // The first query at |now| rescans the live set {2}: 1 was evicted by the
  // scan at 2's observation, a tau after 1's usage ended.
  ask_all("first queries", 1 + 6);
  both([&](SupplyModelInterface& m) { m.OnFailure(1, {now, 1}); });
  ask_all("after a failure", 6);  // the 96 KB/s sample aged out
  uint64_t before = model_.scan_ops();
  both([&](SupplyModelInterface& m) {
    m.OnThroughput(3, {now, 48.0 * kKb, 250 * kMillisecond});
  });
  EXPECT_EQ(model_.scan_ops() - before, 2u);  // the observation scans {2, 3}
  ask_all("after an observation", 6);
  both([](SupplyModelInterface& m) { m.RemoveConnection(2); });
  ask_all("after a removal", 1 + 6);  // a rescan of {3}
  both([](SupplyModelInterface& m) { m.AddConnection(4); });
  // With 3 active, a new idle connection gets the share an unknown one
  // did, so no answer moves.
  ask_all("after an addition", 6, /*moves=*/false);
  both([](SupplyModelInterface& m) {
    for (const ConnectionId id : {1, 3, 4}) {
      m.RemoveConnection(id);
    }
  });
  ask_all("with none registered", 0 + 6);  // the live set is empty
  both([](SupplyModelInterface& m) { m.AddConnection(5); });
  ask_all("after re-adding one", 6);  // one registered: the idle share halves
}

// Property sweep: supply estimation converges to the true rate for a wide
// range of link speeds.
class SupplyConvergence : public ::testing::TestWithParam<double> {};

TEST_P(SupplyConvergence, ConvergesWithinTenPercent) {
  const double true_bps = GetParam();
  SupplyModel model;
  model.AddConnection(1);
  for (int i = 0; i < 30; ++i) {
    const Time at = i * 500 * kMillisecond;
    model.OnThroughput(1, {at, true_bps * 0.5, 521 * kMillisecond});
  }
  EXPECT_NEAR(model.TotalSupply(), true_bps, 0.1 * true_bps);
}

INSTANTIATE_TEST_SUITE_P(Rates, SupplyConvergence,
                         ::testing::Values(10.0 * kKb, 40.0 * kKb, 120.0 * kKb, 500.0 * kKb,
                                           2000.0 * kKb));

}  // namespace
}  // namespace odyssey
