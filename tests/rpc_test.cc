// Unit tests for the RPC endpoint and observation logs.

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/rpc/observation_log.h"
#include "src/sim/simulation.h"
#include "tests/recording_listener.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

TEST(ObservationLogTest, RecordsAndNotifies) {
  ObservationLog log(7);
  RecordingListener listener(&log);
  log.RecordRoundTrip(100, 21 * kMillisecond);
  log.RecordThroughput(200, 1000.0, kSecond);
  log.RecordFailure(300, 3);
  EXPECT_EQ(listener.last_connection, 7u);
  ASSERT_EQ(listener.round_trips.size(), 1u);
  EXPECT_EQ(listener.round_trips[0].at, 100);
  EXPECT_EQ(listener.round_trips[0].rtt, 21 * kMillisecond);
  ASSERT_EQ(listener.throughputs.size(), 1u);
  EXPECT_DOUBLE_EQ(listener.throughputs[0].window_bytes, 1000.0);
  ASSERT_EQ(listener.failures.size(), 1u);
  EXPECT_EQ(listener.failures[0].attempts, 3);
}

TEST(ObservationLogTest, RemoveListenerStopsNotifications) {
  ObservationLog log(1);
  RecordingListener listener;
  log.AddListener(&listener);
  log.RemoveListener(&listener);
  log.RecordRoundTrip(0, 1);
  EXPECT_TRUE(listener.round_trips.empty());
}

TEST(EndpointTest, UniqueIds) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint a(&sim, &link, "a");
  Endpoint b(&sim, &link, "b");
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.log().connection(), a.id());
}

TEST(EndpointTest, PingLogsLatencyDominatedRoundTrip) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener log(&endpoint.log());
  endpoint.Ping(Endpoint::StatusDone());
  sim.Run();
  ASSERT_EQ(log.round_trips.size(), 1u);
  const Duration rtt = log.round_trips[0].rtt;
  // Two 64-byte control messages at 120 KB/s cost ~1 ms; the rest is the
  // 21 ms round-trip latency.
  EXPECT_GE(rtt, 21 * kMillisecond);
  EXPECT_LE(rtt, 23 * kMillisecond);
}

TEST(EndpointTest, CallExcludesServerCompute) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener log(&endpoint.log());
  Time done_at = -1;
  endpoint.Call(64.0, 64.0, 5 * kSecond, [&](Status) { done_at = sim.now(); });
  sim.Run();
  // Completion waits for the server's 5 s of compute...
  EXPECT_GT(done_at, 5 * kSecond);
  // ...but the logged round trip excludes it.
  ASSERT_EQ(log.round_trips.size(), 1u);
  EXPECT_LT(log.round_trips[0].rtt, 100 * kMillisecond);
}

TEST(EndpointTest, FetchWindowLogsThroughput) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener log(&endpoint.log());
  endpoint.FetchWindow(50.0 * kKb, Endpoint::StatusDone());
  sim.Run();
  ASSERT_EQ(log.throughputs.size(), 1u);
  const ThroughputObservation& obs = log.throughputs[0];
  EXPECT_DOUBLE_EQ(obs.window_bytes, 50.0 * kKb);
  // 50 KB at 100 KB/s plus the 64-byte request.
  EXPECT_NEAR(DurationToSeconds(obs.elapsed), 0.5, 0.01);
  EXPECT_DOUBLE_EQ(endpoint.bytes_transferred(), 50.0 * kKb);
}

// bytes_transferred() counts the data bytes of finished windows only: a
// call's request and response, and every control message, add nothing.
TEST(EndpointTest, BytesTransferredCountsOnlyWindowData) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint endpoint(&sim, &link, "server");
  endpoint.Call(1.0 * kKb, 4.0 * kKb, 0, Endpoint::StatusDone());
  sim.Run();
  EXPECT_DOUBLE_EQ(link.bytes_delivered(), 5.0 * kKb);
  EXPECT_EQ(endpoint.bytes_transferred(), 0.0);
  endpoint.FetchWindow(4.0 * kKb, Endpoint::StatusDone());
  sim.Run();
  EXPECT_EQ(endpoint.bytes_transferred(), 4096.0);
}

TEST(EndpointTest, FetchSplitsIntoWindows) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener log(&endpoint.log());
  endpoint.set_window_bytes(32.0 * kKb);
  bool done = false;
  endpoint.Fetch(100.0 * kKb, 0, [&](Status) { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  // One round trip for the transfer request...
  EXPECT_EQ(log.round_trips.size(), 1u);
  // ...then 32+32+32+4 KB windows.
  ASSERT_EQ(log.throughputs.size(), 4u);
  EXPECT_DOUBLE_EQ(log.throughputs[3].window_bytes, 4.0 * kKb);
  EXPECT_NEAR(endpoint.bytes_transferred(), 100.0 * kKb, 0.1);
}

TEST(EndpointTest, FetchZeroBytesCompletesWithoutWindows) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener log(&endpoint.log());
  bool done = false;
  endpoint.Fetch(0.0, 0, [&](Status) { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(log.throughputs.empty());
}

TEST(EndpointTest, SendMirrorsFetchTiming) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint fetcher(&sim, &link, "down");
  Time fetch_done = -1;
  fetcher.Fetch(64.0 * kKb, 0, [&](Status) { fetch_done = sim.now(); });
  sim.Run();

  Simulation sim2;
  Link link2(&sim2, 100.0 * kKb, 0);
  Endpoint sender(&sim2, &link2, "up");
  Time send_done = -1;
  sender.Send(64.0 * kKb, 0, [&](Status) { send_done = sim2.now(); });
  sim2.Run();

  EXPECT_EQ(fetch_done, send_done);
}

TEST(EndpointTest, ConcurrentEndpointsShareTheLink) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint a(&sim, &link, "a");
  Endpoint b(&sim, &link, "b");
  Time a_done = -1;
  Time b_done = -1;
  a.FetchWindow(50.0 * kKb, [&](Status) { a_done = sim.now(); });
  b.FetchWindow(50.0 * kKb, [&](Status) { b_done = sim.now(); });
  sim.Run();
  // Both windows share the link, so each takes ~1 s rather than ~0.5 s.
  EXPECT_NEAR(DurationToSeconds(a_done), 1.0, 0.02);
  EXPECT_NEAR(DurationToSeconds(b_done), 1.0, 0.02);
}

TEST(EndpointTest, ObservedThroughputReflectsContention) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint a(&sim, &link, "a");
  Endpoint b(&sim, &link, "b");
  RecordingListener a_log(&a.log());
  a.FetchWindow(50.0 * kKb, Endpoint::StatusDone());
  b.FetchWindow(50.0 * kKb, Endpoint::StatusDone());
  sim.Run();
  ASSERT_EQ(a_log.throughputs.size(), 1u);
  const ThroughputObservation& obs = a_log.throughputs[0];
  const double observed_bps = obs.window_bytes / DurationToSeconds(obs.elapsed);
  EXPECT_NEAR(observed_bps, 50.0 * kKb, 2.0 * kKb);
}

}  // namespace
}  // namespace odyssey
