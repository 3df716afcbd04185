// Allocation budgets for the adaptation cycle's steady state.
//
// This binary replaces the global operator new/delete with counting
// versions, so each test can pin how many heap allocations one operation
// makes once its buffers have grown: none for an event schedule/fire or
// schedule/cancel, none for an oracle audit tick, none for a telemetry
// feed's sample, and none for an upcall handler's trip through the request
// table and the dispatcher, which moves the handler rather than copying it;
// none for a link's flow churn; one, the attempt record, for an RPC
// exchange; and two, the hint's lists, for an observation's re-evaluation
// pass.  The counting operators
// are linked into this test binary only.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/bitstream_app.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/request_table.h"
#include "src/core/resource.h"
#include "src/core/upcall.h"
#include "src/metrics/experiment.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/servers/telemetry_server.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "src/strategies/centralized.h"
#include "src/tracemod/replay_trace.h"
#include "src/tracemod/waveforms.h"
#include "src/wardens/bitstream_warden.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  size = size == 0 ? 1 : size;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace odyssey {
namespace {

// Allocations made by |op|.
template <typename Op>
uint64_t AllocationsIn(Op&& op) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  op();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// A capture of exactly the inline size: the largest lambda the queue
// stores in place.
struct InlineSized {
  int* fired;
  std::array<char, EventQueue::Callback::kInlineSize - sizeof(int*)> pad{};
};

TEST(AllocBudgetTest, CountingOperatorNewSeesAllocations) {
  EXPECT_EQ(AllocationsIn([] { std::make_unique<int>(7).reset(); }), 1u);
}

TEST(AllocBudgetTest, ScheduleAndFireAllocateNothing) {
  Simulation sim;
  int fired = 0;
  const auto round = [&sim, &fired] {
    for (int i = 0; i < 16; ++i) {
      sim.Schedule(i % 3, [capture = InlineSized{&fired}] { ++*capture.fired; });
      sim.Post(i % 5, [&fired] { ++fired; });
    }
    sim.Run();
  };
  round();  // grows the heap, the slab and the free list
  EXPECT_EQ(AllocationsIn(round), 0u);
  EXPECT_EQ(fired, 64);
}

TEST(AllocBudgetTest, ScheduleAndCancelAllocateNothing) {
  Simulation sim;
  int fired = 0;
  std::vector<EventHandle> handles(16);
  const auto round = [&sim, &fired, &handles] {
    for (EventHandle& handle : handles) {
      handle = sim.Schedule(kSecond, [capture = InlineSized{&fired}] { ++*capture.fired; });
    }
    const EventHandle copy = handles.front();
    for (EventHandle& handle : handles) {
      handle.Cancel();
    }
    EXPECT_FALSE(copy.pending());
  };
  round();
  EXPECT_EQ(AllocationsIn(round), 0u);
  sim.Run();
  EXPECT_EQ(fired, 0);
}

// The produce event re-schedules itself with the feed's name in its
// capture; a capture the queue cannot move in place would be boxed on every
// sample.
TEST(AllocBudgetTest, TelemetrySampleAllocatesNothing) {
  Simulation sim;
  TelemetryServer telemetry(&sim);
  constexpr Duration kPeriod = 200 * kMillisecond;
  telemetry.CreateFeed(kFuzzFeed, kPeriod, 100.0, 5.0);
  // Past kHistoryDepth samples the history stops growing.
  sim.RunUntil(static_cast<Duration>(TelemetryServer::kHistoryDepth + 2) * kPeriod);
  EXPECT_EQ(AllocationsIn([&sim] { sim.RunUntil(sim.now() + 100 * kPeriod); }), 0u);
  std::vector<TelemetrySample> latest;
  ASSERT_TRUE(telemetry.Latest(kFuzzFeed, 1, &latest).ok());
  EXPECT_EQ(latest.back().produced_at, sim.now());
}

TEST(AllocBudgetTest, UpcallHandlerMovesThroughTableAndDispatcher) {
  Simulation sim;
  RequestTable table;
  UpcallDispatcher upcalls(&sim);
  std::vector<RequestTable::Entry> taken;
  int delivered = 0;
  // Three captured words overflow std::function's local buffer, so any copy
  // of this handler on the way to delivery would allocate.
  const auto make_handler = [&delivered] {
    return UpcallHandler([&delivered, a = 1.0, b = 2.0](RequestId, ResourceId, double) {
      delivered += static_cast<int>(a + b);
    });
  };
  const auto cycle = [&](UpcallHandler handler) {
    table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 10.0, 20.0,
                                         std::move(handler)});
    table.TakeViolated(ResourceId::kNetworkBandwidth, 1, 5.0, &taken);
    ASSERT_EQ(taken.size(), 1u);
    upcalls.Post(1, taken[0].id, ResourceId::kNetworkBandwidth, 5.0,
                 std::move(taken[0].descriptor.handler));
    sim.Run();
  };
  cycle(make_handler());  // grows the table, the queues and the event slab
  UpcallHandler handler = make_handler();
  EXPECT_EQ(AllocationsIn([&] { cycle(std::move(handler)); }), 0u);
  EXPECT_EQ(delivered, 6);
}

// Allocations made by each of |n| exchanges that |start| begins and the
// simulation runs to completion.
template <typename Start>
std::vector<uint64_t> AllocationsPerExchange(Simulation* sim, int n, Start start) {
  std::vector<uint64_t> counts;
  counts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    counts.push_back(AllocationsIn([&] {
      start();
      sim->Run();
    }));
  }
  return counts;
}

// A steady-state exchange allocates its attempt record and nothing else:
// every step, the flow continuation and the (never-cancelled) timeout are
// stored in place, in the event slab or the link's flow list.
void ExpectOneAllocationPerAttempt(const RetryPolicy& policy) {
  constexpr int kExchanges = 64;
  Simulation sim;
  Link link(&sim, 120.0 * 1024.0, 10500);
  Endpoint endpoint(&sim, &link, "server");
  endpoint.set_retry_policy(policy);
  int completed = 0;
  const Endpoint::StatusDone done = [&completed](Status status) {
    EXPECT_TRUE(status.ok());
    ++completed;
  };
  for (int i = 0; i < 4; ++i) {  // grows the event slab and the link's buffers
    endpoint.Ping(done);
    endpoint.FetchWindow(8.0 * 1024.0, done);
    sim.Run();
  }
  const auto ping = [&] { endpoint.Ping(done); };
  const auto window = [&] { endpoint.FetchWindow(8.0 * 1024.0, done); };
  const std::vector<uint64_t> one_each(kExchanges, 1);
  EXPECT_EQ(AllocationsPerExchange(&sim, kExchanges, ping), one_each);
  EXPECT_EQ(AllocationsPerExchange(&sim, kExchanges, window), one_each);
  EXPECT_EQ(completed, 8 + 2 * kExchanges);
  EXPECT_EQ(endpoint.timeouts(), 0u);
}

TEST(AllocBudgetTest, ExchangeAllocatesOnlyItsAttempt) {
  ExpectOneAllocationPerAttempt(RetryPolicy());
}

TEST(AllocBudgetTest, ExchangeWithRetryPolicyAllocatesOnlyItsAttempt) {
  ExpectOneAllocationPerAttempt(RetryPolicy::Default());
}

// A completion callback that starts its own successor while the round's
// budget lasts, as a greedy client does.
struct Successor {
  Link* link;
  int* budget;
  int* completed;
  double bytes;

  void operator()() const {
    ++*completed;
    if (*budget > 0) {
      --*budget;
      link->StartFlow(bytes, *this);
    }
  }
};

// Once the link's callback slab, flow list and completion buffer have
// grown, steady churn on a 256-flow link allocates nothing: a completion
// moves out only the drained flows' callbacks, and a started flow parks
// its callback in a recycled slot.
TEST(AllocBudgetTest, LinkFlowChurnAllocatesNothing) {
  constexpr int kFlows = 256;
  constexpr int kRestarts = 4 * kFlows;
  Simulation sim;
  Link link(&sim, 256.0 * 1024.0, 0);
  int budget = 0;
  int completed = 0;
  const auto round = [&](bool equal) {
    budget = kRestarts;
    for (int i = 0; i < kFlows; ++i) {
      // Unequal flows drain a few at a time; equal ones all at one instant.
      const double bytes = equal ? 2048.0 : 1024.0 + 37.0 * static_cast<double>(i);
      link.StartFlow(bytes, Successor{&link, &budget, &completed, bytes});
    }
    sim.Run();
  };
  // Equal flows size the completion buffer for all 256 draining at once;
  // an unequal round then grows whatever else churn needs.
  round(true);
  round(false);
  EXPECT_EQ(AllocationsIn([&] { round(false); }), 0u);
  EXPECT_EQ(completed, 3 * (kFlows + kRestarts));
  EXPECT_EQ(link.active_flow_count(), 0u);
}

TEST(AllocBudgetTest, OracleAuditTickAllocatesNothing) {
  ExperimentRig rig(3, "odyssey");
  rig.client().InstallWarden(std::make_unique<BitstreamWarden>());
  const ReplayTrace waveform = MakeConstant(kHighBandwidth, kMinute);
  FuzzScenario scenario;
  scenario.horizon = kMinute;
  scenario.segments = waveform.segments();
  OracleSet oracles(scenario, &rig.sim(), &rig.client().viceroy(), rig.centralized(),
                    &rig.link());
  std::vector<std::unique_ptr<BitstreamApp>> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(std::make_unique<BitstreamApp>(&rig.client(), "bitstream"));
    apps.back()->Start();
  }
  rig.Replay(waveform, /*prime=*/false);
  rig.sim().RunUntil(10 * kSecond);
  ASSERT_NE(rig.centralized(), nullptr);
  ASSERT_TRUE(rig.centralized()->HasEstimate());
  oracles.Sample();  // sizes the connection scratch
  rig.sim().RunUntil(10 * kSecond + kAuditPeriod);
  EXPECT_EQ(AllocationsIn([&oracles] { oracles.Sample(); }), 0u);
  EXPECT_EQ(oracles.violation_count(), 0u);
}

// One observation on a warm 256-app centralized rig: the supply model
// records it and rescans, and the viceroy's exact pass merges the hint's
// dirty apps with the idle-level probes and asks about every candidate.
// Every app is live and holds a window whose lower bound sits just above
// the idle level, so the probe re-reports every dirty app while no real
// level leaves its window.  The two allocations are the hint's dirty and
// idle-level lists, returned by value; the pass's own scratch is reused.
// The parent of the flat per-observation pass made the same two.
TEST(AllocBudgetTest, ObservationReevaluationPassAllocatesOnlyTheHint) {
  constexpr int kApps = 256;
  ExperimentRig rig(5, "odyssey");
  rig.client().InstallWarden(std::make_unique<BitstreamWarden>());
  std::vector<std::unique_ptr<BitstreamApp>> apps;
  for (int i = 0; i < kApps; ++i) {
    apps.push_back(std::make_unique<BitstreamApp>(&rig.client(), "bitstream"));
    apps.back()->Start();
  }
  rig.Replay(MakeConstant(100.0 * kHighBandwidth, kMinute), /*prime=*/false);
  rig.sim().RunUntil(3 * kSecond);
  CentralizedStrategy* strategy = rig.centralized();
  ASSERT_NE(strategy, nullptr);
  Viceroy& viceroy = rig.client().viceroy();
  const double idle = strategy->supply_model().AvailabilityFor(0, rig.sim().now());
  ASSERT_GT(idle, 0.0);
  for (const auto& app : apps) {
    ResourceDescriptor window{ResourceId::kNetworkBandwidth, idle * 1.0001, 1e15, {}};
    window.handler = [](RequestId, ResourceId, double) {};
    ASSERT_TRUE(viceroy.Request(app->app(), std::move(window)).status_ok);
  }
  const ConnectionId connection = apps.front()->connection();
  const auto observe = [&] {
    ThroughputObservation obs;
    obs.at = rig.sim().now();
    // A window at about a fair share's pace, so the supply holds.
    obs.window_bytes = 8.0 * 1024.0;
    obs.elapsed = static_cast<Duration>(8.0 * 1024.0 / idle * kSecond);
    strategy->OnThroughput(connection, obs);
  };
  observe();  // grows the pass's scratch
  ASSERT_EQ(viceroy.requests().size(), static_cast<size_t>(kApps));
  EXPECT_EQ(AllocationsIn(observe), 2u);
  EXPECT_EQ(viceroy.requests().size(), static_cast<size_t>(kApps));  // no window was taken
}

}  // namespace
}  // namespace odyssey
