// Unit tests for the emulated network: the shared link and the modulator.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/tracemod/waveforms.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

TEST(LinkTest, SingleFlowTransfersAtCapacity) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time done_at = -1;
  link.StartFlow(50.0 * kKb, [&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(done_at, 500 * kMillisecond);
  EXPECT_DOUBLE_EQ(link.bytes_delivered(), 50.0 * kKb);
}

TEST(LinkTest, TwoFlowsShareCapacityEqually) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time a_done = -1;
  Time b_done = -1;
  link.StartFlow(50.0 * kKb, [&] { a_done = sim.now(); });
  link.StartFlow(50.0 * kKb, [&] { b_done = sim.now(); });
  sim.Run();
  // Each flow gets 50 KB/s, so both 50 KB flows take 1 s.
  EXPECT_EQ(a_done, kSecond);
  EXPECT_EQ(b_done, kSecond);
}

TEST(LinkTest, ShortFlowFinishesThenLongFlowSpeedsUp) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time short_done = -1;
  Time long_done = -1;
  link.StartFlow(25.0 * kKb, [&] { short_done = sim.now(); });
  link.StartFlow(75.0 * kKb, [&] { long_done = sim.now(); });
  sim.Run();
  // Shared until the short flow drains at t=0.5s (25KB at 50KB/s); the long
  // flow then has 50KB left at full rate: 0.5s more.
  EXPECT_EQ(short_done, 500 * kMillisecond);
  EXPECT_EQ(long_done, kSecond);
}

TEST(LinkTest, LateFlowJoinsSharing) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time a_done = -1;
  Time b_done = -1;
  link.StartFlow(100.0 * kKb, [&] { a_done = sim.now(); });
  sim.Schedule(500 * kMillisecond, [&] {
    link.StartFlow(25.0 * kKb, [&] { b_done = sim.now(); });
  });
  sim.Run();
  // A runs alone for 0.5s (50KB done), then shares: A's remaining 50KB at
  // 50KB/s = 1s -> done at 1.5s.  B's 25KB at 50KB/s = 0.5s -> done at 1.0s,
  // after which A is alone again... recompute: at t=1.0 B done, A has 25KB
  // left, full rate -> done at 1.25s.
  EXPECT_EQ(b_done, kSecond);
  EXPECT_EQ(a_done, 1250 * kMillisecond);
}

TEST(LinkTest, CapacityChangeMidFlow) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time done_at = -1;
  link.StartFlow(100.0 * kKb, [&] { done_at = sim.now(); });
  sim.Schedule(500 * kMillisecond, [&] { link.SetCapacity(50.0 * kKb); });
  sim.Run();
  // 50KB in the first 0.5s, then 50KB at 50KB/s = 1s -> 1.5s total.
  EXPECT_EQ(done_at, 1500 * kMillisecond);
}

TEST(LinkTest, ZeroCapacityStallsUntilRestored) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time done_at = -1;
  link.StartFlow(100.0 * kKb, [&] { done_at = sim.now(); });
  sim.Schedule(500 * kMillisecond, [&] { link.SetCapacity(0.0); });
  sim.Schedule(10 * kSecond, [&] { link.SetCapacity(100.0 * kKb); });
  sim.Run();
  // 50KB before the shadow; stalled 0.5s..10s; remaining 50KB takes 0.5s.
  EXPECT_EQ(done_at, 10500 * kMillisecond);
}

TEST(LinkTest, CancelFlowNeverCompletes) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  bool completed = false;
  const FlowId id = link.StartFlow(100.0 * kKb, [&] { completed = true; });
  sim.Schedule(100 * kMillisecond, [&] { link.CancelFlow(id); });
  sim.Run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(link.active_flow_count(), 0u);
}

TEST(LinkTest, CancelZeroByteFlowSuppressesCallback) {
  // Regression: zero-byte flows complete through a pre-scheduled event, and
  // CancelFlow used to lose the handle, so the callback fired anyway.
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  bool completed = false;
  const FlowId id = link.StartFlow(0.0, [&] { completed = true; });
  EXPECT_EQ(link.active_flow_count(), 1u);
  link.CancelFlow(id);
  EXPECT_EQ(link.active_flow_count(), 0u);
  sim.Run();
  EXPECT_FALSE(completed);
}

TEST(LinkTest, CancelFlowKeepsRemainingFlowsAccurate) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time survivor_done = -1;
  const FlowId victim = link.StartFlow(100.0 * kKb, [] {});
  link.StartFlow(100.0 * kKb, [&] { survivor_done = sim.now(); });
  // Cancel the victim at 1 s: each flow moved 50 KB by then, and the
  // survivor's remaining 50 KB speeds up to the full capacity.
  sim.Schedule(kSecond, [&] { link.CancelFlow(victim); });
  sim.Run();
  EXPECT_EQ(survivor_done, 1500 * kMillisecond);
  EXPECT_NEAR(link.bytes_delivered(), 150.0 * kKb, 1.0);
}

TEST(LinkTest, CancelUnknownFlowIsIgnored) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  bool completed = false;
  const FlowId id = link.StartFlow(1.0 * kKb, [&] { completed = true; });
  sim.Run();
  EXPECT_TRUE(completed);
  link.CancelFlow(id);       // already completed
  link.CancelFlow(id + 99);  // never existed
  EXPECT_EQ(link.active_flow_count(), 0u);
}

TEST(LinkTest, OutageGateStallsAndResumesFlows) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time done_at = -1;
  link.StartFlow(150.0 * kKb, [&] { done_at = sim.now(); });
  sim.Schedule(kSecond, [&] { link.SetOutage(true); });
  sim.Schedule(3 * kSecond, [&] { link.SetOutage(false); });
  sim.Run();
  // 100 KB in the first second, stalled for two, the rest in 0.5 s.
  EXPECT_EQ(done_at, 3500 * kMillisecond);
  EXPECT_DOUBLE_EQ(link.effective_capacity_bps(), 100.0 * kKb);
}

TEST(LinkTest, OutagePreservesNominalCapacity) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  link.SetOutage(true);
  EXPECT_DOUBLE_EQ(link.capacity_bps(), 100.0 * kKb);
  EXPECT_DOUBLE_EQ(link.effective_capacity_bps(), 0.0);
  link.SetCapacity(40.0 * kKb);  // modulator transition during the outage
  link.SetOutage(false);
  EXPECT_DOUBLE_EQ(link.effective_capacity_bps(), 40.0 * kKb);
}

TEST(LinkTest, ExtraLatencyIsAdditiveAndClampsAtZero) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 10 * kMillisecond);
  link.SetExtraLatency(5 * kMillisecond);
  EXPECT_EQ(link.latency(), 15 * kMillisecond);
  link.SetExtraLatency(-50 * kMillisecond);
  EXPECT_EQ(link.latency(), 0);
  link.SetExtraLatency(0);
  EXPECT_EQ(link.latency(), 10 * kMillisecond);
}

TEST(LinkTest, ZeroByteFlowCompletesAsync) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  bool completed = false;
  link.StartFlow(0.0, [&] { completed = true; });
  EXPECT_FALSE(completed);  // never synchronously inside StartFlow
  sim.Run();
  EXPECT_TRUE(completed);
}

TEST(LinkTest, CompletionCallbackCanStartNextFlow) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Time second_done = -1;
  link.StartFlow(50.0 * kKb, [&] {
    link.StartFlow(50.0 * kKb, [&] { second_done = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(second_done, kSecond);
}

TEST(LinkTest, ManyFlowsConserveBytes) {
  Simulation sim;
  Link link(&sim, 64.0 * kKb, 0);
  int completed = 0;
  for (int i = 1; i <= 20; ++i) {
    link.StartFlow(static_cast<double>(i) * kKb, [&] { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, 20);
  EXPECT_NEAR(link.bytes_delivered(), 210.0 * kKb, 1.0);
}

// Pins the link's whole processor-sharing schedule to a digest recorded
// before the flow table changed representation: ~200 seeded flows with
// starts (some from completion callbacks, some in batches of equal flows
// that complete together), cancels of live, completed and unknown ids,
// zero-byte flows, capacity changes and outages.  The digest folds in each
// completion's flow id, instant and the bits of bytes_delivered() at that
// instant, so any change to the order or arithmetic of draining moves it.
TEST(LinkTest, SeededScheduleMatchesPinnedDigest) {
  constexpr int kMaxFlows = 200;
  constexpr uint64_t kPinnedDigest = 0x1e14d9adbfc34310ULL;
  Simulation sim;
  Link link(&sim, 64.0 * kKb, 0);
  Rng rng(19);

  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto mix = [&digest](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest = (digest ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  };

  // The test's own model of what is in flight: byte-carrying flows and
  // zero-byte flows whose completion is still queued.
  std::set<FlowId> live;
  std::set<FlowId> live_zero;
  std::vector<FlowId> completed;
  std::vector<FlowId> ids;  // by start order; a callback finds its id here

  const auto random_bytes = [&] {
    return rng.UniformInt(10) == 0 ? 0.0 : rng.Uniform(1.0, 32.0 * kKb);
  };
  std::function<void(double)> start_flow = [&](double bytes) {
    const bool zero = bytes == 0.0;
    const size_t k = ids.size();
    ids.push_back(0);
    ids[k] = link.StartFlow(bytes, [&, k, zero] {
      const FlowId id = ids[k];
      mix(id);
      mix(static_cast<uint64_t>(sim.now()));
      mix(std::bit_cast<uint64_t>(link.bytes_delivered()));
      (zero ? live_zero : live).erase(id);
      completed.push_back(id);
      if (ids.size() < kMaxFlows && rng.UniformInt(10) < 3) {
        start_flow(random_bytes());
      }
    });
    (zero ? live_zero : live).insert(ids[k]);
  };

  // ActiveFlowIds lists the in-flight flows in ascending id order, then the
  // pending zero-byte flows in ascending id order.
  const auto check_active_ids = [&] {
    std::vector<FlowId> expected(live.begin(), live.end());
    expected.insert(expected.end(), live_zero.begin(), live_zero.end());
    EXPECT_EQ(link.ActiveFlowIds(), expected) << "at t=" << sim.now();
    EXPECT_EQ(link.active_flow_count(), expected.size());
  };

  const auto pick = [&](const auto& pool) {
    auto it = pool.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.UniformInt(pool.size())));
    return *it;
  };

  bool outage = false;
  Time at = 0;
  while (ids.size() < kMaxFlows) {
    at += static_cast<Duration>(rng.UniformInt(200 * kMillisecond));
    sim.RunUntil(at);
    const uint64_t action = rng.UniformInt(20);
    if (action < 8) {
      start_flow(random_bytes());
    } else if (action < 9) {
      // Equal flows started together drain together: their callbacks fire
      // from one completion pass, in id order.
      const double bytes = rng.Uniform(1.0, 32.0 * kKb);
      for (uint64_t n = 2 + rng.UniformInt(3); n > 0; --n) {
        start_flow(bytes);
      }
    } else if (action < 12 && !live.empty()) {
      const FlowId id = pick(live);
      link.CancelFlow(id);
      live.erase(id);
    } else if (action < 13) {
      // A zero-byte flow completes on the next event-loop turn, so cancel
      // it before that turn comes.
      start_flow(0.0);
      link.CancelFlow(ids.back());
      live_zero.erase(ids.back());
    } else if (action < 14 && !completed.empty()) {
      link.CancelFlow(pick(completed));
    } else if (action < 15) {
      link.CancelFlow(ids.size() + 1000 + rng.UniformInt(1000));
    } else if (action < 18) {
      link.SetCapacity(rng.UniformInt(8) == 0 ? 0.0 : rng.Uniform(8.0, 128.0) * kKb);
    } else {
      outage = !outage;
      link.SetOutage(outage);
    }
    check_active_ids();
  }
  // Lift every stall so the remaining flows drain.
  link.SetOutage(false);
  link.SetCapacity(64.0 * kKb);
  sim.Run();
  check_active_ids();
  EXPECT_TRUE(live.empty());
  EXPECT_TRUE(live_zero.empty());

  mix(std::bit_cast<uint64_t>(link.bytes_delivered()));
  mix(completed.size());
  EXPECT_EQ(digest, kPinnedDigest) << std::hex << digest;
}

// Pins a wide schedule the way the test above pins a narrow one, and also
// folds in every same-instant tie the event queue breaks (its instant and
// both sequence numbers), so the count and order of the link's completion
// reschedules are pinned too.  The digest was recorded before the link's
// callbacks moved out of its flow records.  The run keeps at least 256
// flows in flight (300 at the start, and most completions start a
// successor); equal flows started together drain at one instant; tiny
// flows, which hold the smallest residual, are cancelled at once or a few
// milliseconds later; capacity parks at zero and comes back; outages come
// and go.  The test's own scheduled actions are events, so they take part in ties.
TEST(LinkTest, WideScheduleMatchesPinnedDigest) {
  constexpr uint64_t kPinnedDigest = 0xe675308b7c74b7a2ULL;
  constexpr size_t kMaxFlows = 4000;
  constexpr int kActions = 600;
  Simulation sim;
  Link link(&sim, 256.0 * kKb, 0);
  Rng rng(23);

  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto mix = [&digest](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest = (digest ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  sim.set_tie_observer([&mix](Time when, uint64_t prev_seq, uint64_t seq) {
    mix(static_cast<uint64_t>(when));
    mix(prev_seq);
    mix(seq);
  });

  std::set<FlowId> live;
  std::set<FlowId> live_zero;
  std::vector<FlowId> ids;  // by start order; a callback finds its id here
  size_t peak = 0;
  int completed = 0;
  int shared_instants = 0;  // completions at the instant of the previous one
  Time last_completion = -1;

  const auto random_bytes = [&] { return rng.Uniform(256.0, 4.0 * kKb); };
  std::function<void(double)> start_flow = [&](double bytes) {
    const bool zero = bytes == 0.0;
    const size_t k = ids.size();
    ids.push_back(0);
    ids[k] = link.StartFlow(bytes, [&, k, zero] {
      const FlowId id = ids[k];
      mix(id);
      mix(static_cast<uint64_t>(sim.now()));
      mix(std::bit_cast<uint64_t>(link.bytes_delivered()));
      mix(sim.events_processed());
      (zero ? live_zero : live).erase(id);
      ++completed;
      if (sim.now() == last_completion) {
        ++shared_instants;
      }
      last_completion = sim.now();
      if (ids.size() < kMaxFlows && rng.UniformInt(10) < 9) {
        start_flow(random_bytes());
      }
    });
    (zero ? live_zero : live).insert(ids[k]);
    peak = std::max(peak, link.active_flow_count());
  };
  const auto start_batch = [&](uint64_t n) {
    // Equal flows started together drain together.
    const double bytes = random_bytes();
    for (; n > 0; --n) {
      start_flow(bytes);
    }
  };

  while (ids.size() < 300) {
    start_batch(1 + rng.UniformInt(4));
  }

  int actions = 0;
  int min_cancels = 0;
  bool outage = false;
  std::function<void()> act = [&] {
    const uint64_t action = rng.UniformInt(20);
    if (action < 6) {
      start_flow(random_bytes());
    } else if (action < 8) {
      start_batch(2 + rng.UniformInt(4));
    } else if (action < 10) {
      // A flow of a few bytes holds the smallest residual on a link this
      // wide; cancel it now or a few milliseconds on, before it drains.
      start_flow(rng.Uniform(1.0, 16.0));
      const FlowId id = ids.back();
      const auto cancel = [&, id] {
        if (live.erase(id) > 0) {
          ++min_cancels;
        }
        link.CancelFlow(id);
      };
      if (action == 8) {
        cancel();
      } else {
        sim.Schedule(static_cast<Duration>(rng.UniformInt(4 * kMillisecond)), cancel);
      }
    } else if (action < 11 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.UniformInt(live.size())));
      const FlowId id = *it;
      live.erase(it);
      link.CancelFlow(id);
    } else if (action < 13) {
      // Park every flow, then restore a capacity after a while.
      link.SetCapacity(0.0);
      const double restored = rng.Uniform(64.0, 512.0) * kKb;
      sim.Schedule(static_cast<Duration>(rng.UniformInt(300 * kMillisecond)),
                   [&link, restored] { link.SetCapacity(restored); });
    } else if (action < 15) {
      link.SetCapacity(rng.Uniform(64.0, 512.0) * kKb);
    } else if (action < 16) {
      outage = !outage;
      link.SetOutage(outage);
    } else if (action < 17) {
      start_flow(0.0);
    }
    std::vector<FlowId> expected(live.begin(), live.end());
    expected.insert(expected.end(), live_zero.begin(), live_zero.end());
    EXPECT_EQ(link.ActiveFlowIds(), expected) << "at t=" << sim.now();
    if (++actions < kActions) {
      sim.Schedule(static_cast<Duration>(rng.UniformInt(100 * kMillisecond)), [&act] { act(); });
    }
  };
  sim.Schedule(0, [&act] { act(); });
  sim.Run();
  // Lift every stall so the remaining flows drain.
  link.SetOutage(false);
  link.SetCapacity(256.0 * kKb);
  sim.Run();
  EXPECT_TRUE(live.empty());
  EXPECT_TRUE(live_zero.empty());
  EXPECT_EQ(link.active_flow_count(), 0u);

  // The schedule reached what it is meant to cover.
  EXPECT_GE(peak, 256u);
  EXPECT_GT(shared_instants, 50);
  EXPECT_GT(min_cancels, 20);

  mix(std::bit_cast<uint64_t>(link.bytes_delivered()));
  mix(static_cast<uint64_t>(completed));
  EXPECT_EQ(digest, kPinnedDigest) << std::hex << digest;
}

TEST(LinkTest, FairShareRateAccountsForFlows) {
  Simulation sim;
  Link link(&sim, 100.0, 0);
  EXPECT_DOUBLE_EQ(link.FairShareRate(), 100.0);
  link.StartFlow(1000.0, [] {});
  link.StartFlow(1000.0, [] {});
  EXPECT_DOUBLE_EQ(link.FairShareRate(), 50.0);
}

TEST(ModulatorTest, AppliesSegmentsOnSchedule) {
  Simulation sim;
  Link link(&sim, 1.0, 0);
  Modulator modulator(&sim, &link);
  ReplayTrace trace;
  trace.Append(10 * kSecond, 100.0, 1000);
  trace.Append(10 * kSecond, 200.0, 2000);
  modulator.Replay(trace);
  EXPECT_DOUBLE_EQ(link.capacity_bps(), 100.0);
  EXPECT_EQ(link.latency(), 1000);
  sim.RunUntil(15 * kSecond);
  EXPECT_DOUBLE_EQ(link.capacity_bps(), 200.0);
  EXPECT_EQ(link.latency(), 2000);
}

TEST(ModulatorTest, FinalSegmentPersists) {
  Simulation sim;
  Link link(&sim, 1.0, 0);
  Modulator modulator(&sim, &link);
  modulator.Replay(MakeConstant(123.0, kSecond));
  sim.RunUntil(100 * kSecond);
  EXPECT_DOUBLE_EQ(link.capacity_bps(), 123.0);
}

TEST(ModulatorTest, TransitionListenersFireInOrder) {
  Simulation sim;
  Link link(&sim, 1.0, 0);
  Modulator modulator(&sim, &link);
  std::vector<double> seen;
  modulator.AddTransitionListener(
      [&](const TraceSegment& segment) { seen.push_back(segment.bandwidth_bps); });
  modulator.Replay(MakeStepUp());
  sim.RunUntil(kWaveformLength);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], kLowBandwidth);
  EXPECT_DOUBLE_EQ(seen[1], kHighBandwidth);
}

TEST(ModulatorTest, TheoreticalBandwidthTracksTrace) {
  Simulation sim;
  Link link(&sim, 1.0, 0);
  Modulator modulator(&sim, &link);
  sim.Schedule(5 * kSecond, [&] { modulator.Replay(MakeStepUp()); });
  sim.RunUntil(5 * kSecond);
  EXPECT_DOUBLE_EQ(modulator.TheoreticalBandwidthAt(6 * kSecond), kLowBandwidth);
  EXPECT_DOUBLE_EQ(modulator.TheoreticalBandwidthAt(36 * kSecond), kHighBandwidth);
}

TEST(ModulatorTest, ReplayRestartsCleanly) {
  Simulation sim;
  Link link(&sim, 1.0, 0);
  Modulator modulator(&sim, &link);
  modulator.Replay(MakeStepUp());
  modulator.Replay(MakeConstant(42.0, kSecond));  // cancels the pending step
  sim.RunUntil(2 * kWaveformLength);
  EXPECT_DOUBLE_EQ(link.capacity_bps(), 42.0);
}

}  // namespace
}  // namespace odyssey
