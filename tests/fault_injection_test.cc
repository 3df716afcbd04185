// Fault-matrix tests: deterministic fault injection composed with the RPC
// retry machinery, the estimator, and the full warden stack.
//
// The contract under test (see DESIGN.md "Fault model"):
//   (a) no hung callbacks — every exchange settles, by success or by
//       kDeadlineExceeded after bounded retries;
//   (b) retries are bounded by RetryPolicy::max_attempts;
//   (c) fidelity steps down while a fault is active and recovers after;
//   (d) identical seeds and plans reproduce identical outcomes.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "src/apps/speech_frontend.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/core/status.h"
#include "src/estimator/supply_model.h"
#include "src/metrics/experiment.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/sim/simulation.h"
#include "src/strategies/centralized.h"
#include "src/trace/trace_event.h"
#include "src/trace/trace_recorder.h"
#include "tests/recording_listener.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

// A policy with deterministic timing (no jitter) for exact-value tests.
RetryPolicy ExactPolicy() {
  RetryPolicy policy = RetryPolicy::Default();
  policy.timeout = 500 * kMillisecond;
  policy.backoff_base = 100 * kMillisecond;
  policy.jitter = 0.0;
  return policy;
}

// --- FaultInjector unit tests -------------------------------------------

TEST(FaultInjectorTest, SameSeedSameDropPattern) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 0);
  FaultInjector a(&sim, &link);
  FaultInjector b(&sim, &link);
  FaultPlan plan;
  plan.WithSeed(42).WithDropProbability(0.3);
  a.Arm(plan);
  b.Arm(plan);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.ShouldDropMessage(), b.ShouldDropMessage()) << "message " << i;
  }
  EXPECT_EQ(a.messages_dropped(), b.messages_dropped());
  EXPECT_GT(a.messages_dropped(), 0u);
  EXPECT_LT(a.messages_dropped(), 1000u);
}

TEST(FaultInjectorTest, DifferentSeedDifferentDropPattern) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 0);
  FaultInjector a(&sim, &link);
  FaultInjector b(&sim, &link);
  a.Arm(FaultPlan().WithSeed(1).WithDropProbability(0.3));
  b.Arm(FaultPlan().WithSeed(2).WithDropProbability(0.3));
  int disagreements = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.ShouldDropMessage() != b.ShouldDropMessage()) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultInjectorTest, ScheduledDropsAreExactAndSeedIndependent) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 0);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithSeed(7).WithDroppedMessage(2).WithDroppedMessage(5));
  std::vector<bool> pattern;
  pattern.reserve(6);
  for (int i = 0; i < 6; ++i) {
    pattern.push_back(injector.ShouldDropMessage());
  }
  EXPECT_EQ(pattern, (std::vector<bool>{false, true, false, false, true, false}));
  EXPECT_EQ(injector.messages_dropped(), 2u);
}

TEST(FaultInjectorTest, RearmResetsStreamAndCounters) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 0);
  FaultInjector injector(&sim, &link);
  FaultPlan plan;
  plan.WithSeed(9).WithDropProbability(0.5);
  injector.Arm(plan);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(injector.ShouldDropMessage());
  }
  injector.Arm(plan);
  EXPECT_EQ(injector.messages_offered(), 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(injector.ShouldDropMessage(), first[static_cast<size_t>(i)]);
  }
}

TEST(FaultInjectorTest, OutageWindowGatesTheLink) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithOutage(1 * kSecond, 2 * kSecond));

  // 150 KB started at t=0: 1 s moves 100 KB, the outage stalls the last
  // 50 KB for 2 s, and transfer resumes at 3 s, completing at 3.5 s.
  Time completed = 0;
  link.StartFlow(150.0 * kKb, [&] { completed = sim.now(); });
  sim.Run();
  EXPECT_EQ(completed, 3500 * kMillisecond);
  EXPECT_FALSE(link.in_outage());
}

TEST(FaultInjectorTest, OutageComposesWithCapacityChanges) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithOutage(1 * kSecond, 1 * kSecond));
  // Halve the capacity mid-outage; an outage is a gate, not a saved
  // capacity, so the modulator's change must hold once the outage lifts.
  sim.Schedule(1500 * kMillisecond, [&] { link.SetCapacity(50.0 * kKb); });

  Time completed = 0;
  link.StartFlow(150.0 * kKb, [&] { completed = sim.now(); });
  sim.Run();
  // 1 s at 100 KB/s, 1 s stalled, then 50 KB at the new 50 KB/s rate.
  EXPECT_EQ(completed, 3 * kSecond);
  EXPECT_DOUBLE_EQ(link.capacity_bps(), 50.0 * kKb);
}

TEST(FaultInjectorTest, LatencySpikeIsAdditiveAndReverts) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10 * kMillisecond);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithLatencySpike(1 * kSecond, 1 * kSecond, 300 * kMillisecond));
  EXPECT_EQ(link.latency(), 10 * kMillisecond);
  sim.RunUntil(1500 * kMillisecond);
  EXPECT_EQ(link.latency(), 310 * kMillisecond);
  sim.RunUntil(2500 * kMillisecond);
  EXPECT_EQ(link.latency(), 10 * kMillisecond);
}

TEST(FaultInjectorTest, ServerStallExtraSumsCoveringWindows) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 0);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan()
                   .WithServerStall(1 * kSecond, 2 * kSecond, 100 * kMillisecond)
                   .WithServerStall(2 * kSecond, 2 * kSecond, 50 * kMillisecond));
  EXPECT_EQ(injector.ServerStallExtra(0), 0);
  EXPECT_EQ(injector.ServerStallExtra(1500 * kMillisecond), 100 * kMillisecond);
  EXPECT_EQ(injector.ServerStallExtra(2500 * kMillisecond), 150 * kMillisecond);
  EXPECT_EQ(injector.ServerStallExtra(3500 * kMillisecond), 50 * kMillisecond);
  EXPECT_EQ(injector.ServerStallExtra(4 * kSecond), 0);
}

TEST(FaultInjectorTest, FlowKillCancelsEveryActiveFlow) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithFlowKill(500 * kMillisecond));
  bool first_completed = false;
  bool second_completed = false;
  link.StartFlow(100.0 * kKb, [&] { first_completed = true; });
  link.StartFlow(200.0 * kKb, [&] { second_completed = true; });
  sim.Run();
  EXPECT_FALSE(first_completed);
  EXPECT_FALSE(second_completed);
  EXPECT_EQ(injector.flows_killed(), 2u);
  EXPECT_EQ(link.active_flow_count(), 0u);
}

// --- Endpoint retry/timeout/backoff -------------------------------------

TEST(EndpointRetryTest, DroppedRequestIsRetriedAndSucceeds) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithDroppedMessage(1));
  Endpoint endpoint(&sim, &link, "server");
  endpoint.set_retry_policy(ExactPolicy());
  endpoint.set_fault_injector(&injector);

  int done_count = 0;
  Status final_status;
  RecordingListener log(&endpoint.log());
  endpoint.Ping([&](Status status) {
    ++done_count;
    final_status = status;
  });
  sim.Run();

  EXPECT_EQ(done_count, 1);
  EXPECT_TRUE(final_status.ok());
  EXPECT_EQ(endpoint.retries(), 1u);
  EXPECT_EQ(endpoint.timeouts(), 1u);
  EXPECT_EQ(endpoint.exchanges_failed(), 0u);
  ASSERT_EQ(log.round_trips.size(), 1u);
}

TEST(EndpointRetryTest, RetriedCallLogsOnlyItsOwnSpan) {
  // The estimator must not be poisoned by retransmission-inflated samples:
  // a call whose first attempt was lost logs the same round trip as a call
  // that succeeded immediately.
  Duration clean_rtt = 0;
  {
    Simulation sim;
    Link link(&sim, 120.0 * kKb, 10500);
    Endpoint endpoint(&sim, &link, "server");
    endpoint.set_retry_policy(ExactPolicy());
    RecordingListener log(&endpoint.log());
    endpoint.Ping(Endpoint::StatusDone());
    sim.Run();
    ASSERT_EQ(log.round_trips.size(), 1u);
    clean_rtt = log.round_trips[0].rtt;
  }
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithDroppedMessage(1));
  Endpoint endpoint(&sim, &link, "server");
  endpoint.set_retry_policy(ExactPolicy());
  endpoint.set_fault_injector(&injector);
  RecordingListener log(&endpoint.log());
  endpoint.Ping(Endpoint::StatusDone());
  sim.Run();
  ASSERT_EQ(log.round_trips.size(), 1u);
  EXPECT_EQ(log.round_trips[0].rtt, clean_rtt);
}

TEST(EndpointRetryTest, RetriedWindowLogsOnlyItsOwnSpan) {
  Duration clean_elapsed = 0;
  {
    Simulation sim;
    Link link(&sim, 120.0 * kKb, 10500);
    Endpoint endpoint(&sim, &link, "server");
    endpoint.set_retry_policy(ExactPolicy());
    RecordingListener log(&endpoint.log());
    endpoint.FetchWindow(4.0 * kKb, Endpoint::StatusDone());
    sim.Run();
    ASSERT_EQ(log.throughputs.size(), 1u);
    clean_elapsed = log.throughputs[0].elapsed;
  }
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithDroppedMessage(1));
  Endpoint endpoint(&sim, &link, "server");
  endpoint.set_retry_policy(ExactPolicy());
  endpoint.set_fault_injector(&injector);
  RecordingListener log(&endpoint.log());
  endpoint.FetchWindow(4.0 * kKb, Endpoint::StatusDone());
  sim.Run();
  ASSERT_EQ(log.throughputs.size(), 1u);
  EXPECT_EQ(log.throughputs[0].elapsed, clean_elapsed);
}

TEST(EndpointRetryTest, TotalLossFailsAfterBoundedRetries) {
  // The ISSUE's acceptance scenario: at 100% drop the exchange must settle
  // with a failure after max_attempts, not hang.
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithDropProbability(1.0));
  Endpoint endpoint(&sim, &link, "server");
  const RetryPolicy policy = ExactPolicy();
  endpoint.set_retry_policy(policy);
  endpoint.set_fault_injector(&injector);
  RecordingListener log(&endpoint.log());

  int done_count = 0;
  Status final_status;
  endpoint.Fetch(64.0 * kKb, 0, [&](Status status) {
    ++done_count;
    final_status = status;
  });
  sim.Run();  // terminates: every attempt has a timeout

  EXPECT_EQ(done_count, 1);
  EXPECT_EQ(final_status.code(), StatusCode::kDeadlineExceeded);
  // The control exchange consumed the whole attempt budget and no more.
  EXPECT_EQ(endpoint.retries(), static_cast<uint64_t>(policy.max_attempts - 1));
  EXPECT_EQ(endpoint.exchanges_failed(), 1u);
  ASSERT_EQ(log.failures.size(), 1u);
  EXPECT_EQ(log.failures[0].attempts, policy.max_attempts);
  EXPECT_TRUE(log.round_trips.empty());
  EXPECT_TRUE(log.throughputs.empty());
}

TEST(EndpointRetryTest, DisabledPolicyNeverTimesOutOrRetries) {
  // Default-constructed policy preserves the fair-weather protocol even
  // with an injector attached: a dropped message hangs the exchange (the
  // paper's infinite patience) instead of fabricating failures.
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithDroppedMessage(1));
  Endpoint endpoint(&sim, &link, "server");
  endpoint.set_fault_injector(&injector);
  int done_count = 0;
  endpoint.Ping([&](Status) { ++done_count; });
  sim.Run();
  EXPECT_EQ(done_count, 0);
  EXPECT_EQ(endpoint.retries(), 0u);
  EXPECT_EQ(endpoint.timeouts(), 0u);
}

TEST(EndpointRetryTest, FailuresCollapseSupplyEstimate) {
  SupplyModel model;
  model.AddConnection(1);
  model.OnThroughput(1, ThroughputObservation{1 * kSecond, 100.0 * kKb, 1 * kSecond});
  EXPECT_GT(model.TotalSupply(), 50.0 * kKb);
  // Sustained failures age the stale high sample out of the envelope.
  model.OnFailure(1, FailureObservation{2 * kSecond, 4});
  model.OnFailure(1, FailureObservation{4 * kSecond, 4});
  EXPECT_DOUBLE_EQ(model.TotalSupply(), 0.0);
  EXPECT_DOUBLE_EQ(model.AvailabilityFor(1, 4 * kSecond), 0.0);
}

TEST(EndpointRetryTest, BackoffGrowsExponentially) {
  // With jitter disabled the k-th retry waits base * multiplier^(k-1):
  // attempts at t, t+budget+100ms, t+2*budget+300ms, t+3*budget+700ms.
  Simulation sim;
  Link link(&sim, 1e9, 0);  // instant transfer; timing is all budget+backoff
  FaultInjector injector(&sim, &link);
  injector.Arm(FaultPlan().WithDropProbability(1.0));
  Endpoint endpoint(&sim, &link, "server");
  RetryPolicy policy = ExactPolicy();
  policy.min_rate_bytes_per_sec = 0.0;  // no byte allowance: budget == timeout
  endpoint.set_retry_policy(policy);
  endpoint.set_fault_injector(&injector);

  Time failed_at = -1;
  endpoint.Ping([&](Status status) {
    EXPECT_FALSE(status.ok());
    failed_at = sim.now();
  });
  sim.Run();
  // 4 attempts x 500 ms timeout + backoffs 100 + 200 + 400 ms = 2.7 s.
  EXPECT_EQ(failed_at, 2700 * kMillisecond);
}

// An endpoint under total loss with no jitter, whose exchanges fail after
// |max_attempts| attempts.
struct TotalLossRig {
  explicit TotalLossRig(int max_attempts) {
    injector.Arm(FaultPlan().WithDropProbability(1.0));
    RetryPolicy policy = ExactPolicy();
    policy.max_attempts = max_attempts;
    endpoint.set_retry_policy(policy);
    endpoint.set_fault_injector(&injector);
  }

  // A completion that records the instant its exchange failed.
  Endpoint::StatusDone RecordFailure() {
    return [this](Status status) {
      EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
      failed_at = sim.now();
    };
  }

  Simulation sim;
  Link link{&sim, 120.0 * kKb, 10500};
  FaultInjector injector{&sim, &link};
  Endpoint endpoint{&sim, &link, "server"};
  Time failed_at = -1;
};

TEST(EndpointRetryTest, AttemptBudgetCountsPayloadAtTheFloorRate) {
  // Budget = 500 ms timeout + server compute + payload / 16 KB/s floor.
  // A call's payload is both messages: a ping's 128 B earn 7,812.5 us.
  TotalLossRig ping(1);
  ping.endpoint.Ping(ping.RecordFailure());
  ping.sim.Run();
  EXPECT_EQ(ping.failed_at, 500 * kMillisecond + 7813);

  // 64 + 1,024 B earn 66,406.25 us, and the server's 300 ms come on top.
  TotalLossRig call(1);
  call.endpoint.Call(64.0, 1024.0, 300 * kMillisecond, call.RecordFailure());
  call.sim.Run();
  EXPECT_EQ(call.failed_at, 800 * kMillisecond + 66406);

  // A window's payload is its data alone: 4 KB earn 250 ms, and the 64 B
  // window request earns nothing.
  TotalLossRig window(1);
  window.endpoint.FetchWindow(4.0 * kKb, window.RecordFailure());
  window.sim.Run();
  EXPECT_EQ(window.failed_at, 750 * kMillisecond);

  for (const TotalLossRig* rig : {&ping, &call, &window}) {
    EXPECT_EQ(rig->endpoint.timeouts(), 1u);
    EXPECT_EQ(rig->endpoint.retries(), 0u);
    EXPECT_EQ(rig->endpoint.exchanges_failed(), 1u);
  }
}

// The endpoint's trace events, one "ts phase name [#span] args" line each.
std::string RpcTrace(const TraceRecorder& recorder) {
  std::ostringstream out;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (event.category != TraceCategory::kRpc) {
      continue;
    }
    out << event.ts << ' ' << TracePhaseCode(event.phase) << ' ' << event.name;
    if (event.phase != TracePhase::kInstant) {
      out << " #" << event.id;
    }
    if (event.arg0_name != nullptr) {
      out << ' ' << event.arg0_name << '=' << event.arg0;
    }
    if (event.arg1_name != nullptr) {
      out << ' ' << event.arg1_name << '=' << event.arg1;
    }
    out << '\n';
  }
  return out.str();
}

TEST(EndpointRetryTest, TimedOutWindowClosesItsSpanBeforeRetrying) {
  TotalLossRig rig(2);
  TraceRecorder recorder;
  rig.sim.set_trace(&recorder);
  rig.endpoint.FetchWindow(4.0 * kKb, rig.RecordFailure());
  rig.sim.Run();

  // Each attempt is its own rpc_window span, closed at its 750 ms budget;
  // the retry opens attempt 2 after the 100 ms backoff.
  const std::string expected =
      "0 b rpc_window #1 bytes=4096 attempt=1\n"
      "750000 e rpc_window #1\n"
      "750000 i rpc_timeout attempt=1\n"
      "750000 i rpc_retry attempt=1 backoff_us=100000\n"
      "850000 b rpc_window #2 bytes=4096 attempt=2\n"
      "1600000 e rpc_window #2\n"
      "1600000 i rpc_timeout attempt=2\n"
      "1600000 i rpc_failed attempts=2\n";
  EXPECT_EQ(RpcTrace(recorder), expected);
  EXPECT_EQ(rig.failed_at, 1600 * kMillisecond);
}

// --- The fault matrix ----------------------------------------------------

enum class FaultKind { kDrop, kOutage, kLatencySpike, kServerStall };
enum class Workload { kVideo, kWeb, kSpeech };

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "Drop";
    case FaultKind::kOutage:
      return "Outage";
    case FaultKind::kLatencySpike:
      return "LatencySpike";
    case FaultKind::kServerStall:
      return "ServerStall";
  }
  return "Unknown";
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kVideo:
      return "Video";
    case Workload::kWeb:
      return "Web";
    case Workload::kSpeech:
      return "Speech";
  }
  return "Unknown";
}

constexpr Time kFaultStart = 20 * kSecond;
constexpr Time kFaultEnd = 28 * kSecond;
constexpr Time kHorizon = 58 * kSecond;

// Measurement windows around the fault.
constexpr Time kBeforeBegin = 10 * kSecond;
constexpr Time kBeforeEnd = 20 * kSecond;
constexpr Time kDuringBegin = 21 * kSecond;
constexpr Time kDuringEnd = 28 * kSecond;
constexpr Time kAfterBegin = 40 * kSecond;
constexpr Time kAfterEnd = 56 * kSecond;

FaultPlan PlanFor(FaultKind kind, uint64_t seed) {
  FaultPlan plan;
  plan.WithSeed(seed);
  switch (kind) {
    case FaultKind::kDrop:
      // Steady loss over the whole run; retries must absorb it.
      plan.WithDropProbability(0.15);
      break;
    case FaultKind::kOutage:
      plan.WithOutage(kFaultStart, kFaultEnd - kFaultStart);
      break;
    case FaultKind::kLatencySpike:
      // Large enough that every workload's quality metric moves: at 800 ms
      // extra one-way latency a video batch window's observed rate falls
      // below the middle track's requirement no matter which track the
      // player was on.
      plan.WithLatencySpike(kFaultStart, kFaultEnd - kFaultStart, 800 * kMillisecond);
      break;
    case FaultKind::kServerStall:
      plan.WithServerStall(kFaultStart, kFaultEnd - kFaultStart, 2500 * kMillisecond);
      break;
  }
  return plan;
}

struct ScenarioResult {
  bool completed = false;      // the workload made progress past the fault
  double before = 0.0;         // fidelity (or -mean-seconds) before the fault
  double during = 0.0;         // ... while it was active
  double after = 0.0;          // ... after recovery
  bool degraded = false;       // some degradation signal fired during the fault
  uint64_t messages_dropped = 0;
  uint64_t messages_offered = 0;
  std::string fingerprint;     // full deterministic outcome digest
};

ScenarioResult RunScenario(FaultKind kind, Workload workload, uint64_t seed) {
  ExperimentRig rig(seed, "odyssey");
  rig.client().set_retry_policy(RetryPolicy::Default());
  FaultInjector injector(&rig.sim(), &rig.link());
  rig.client().set_fault_injector(&injector);
  injector.Arm(PlanFor(kind, seed));

  std::unique_ptr<VideoPlayer> player;
  std::unique_ptr<WebBrowser> browser;
  std::unique_ptr<SpeechFrontEnd> speech;
  std::unique_ptr<WebBrowser> background;  // keeps estimates alive for speech

  switch (workload) {
    case Workload::kVideo: {
      VideoPlayerOptions options;
      options.movie = kDefaultMovie;
      options.frames_to_play = 560;  // 56 s at 10 fps
      player = std::make_unique<VideoPlayer>(&rig.client(), options);
      player->Start();
      break;
    }
    case Workload::kWeb: {
      WebBrowserOptions options;
      options.url = kTestImageUrl;
      options.think_time = 100 * kMillisecond;
      browser = std::make_unique<WebBrowser>(&rig.client(), options);
      browser->Start();
      break;
    }
    case Workload::kSpeech: {
      speech = std::make_unique<SpeechFrontEnd>(&rig.client(), SpeechFrontEndOptions{});
      speech->Start();
      // Speech goes fully local when disconnected; background web traffic
      // re-probes the network so the estimate (and the plan) can recover.
      WebBrowserOptions options;
      options.url = kTestImageUrl;
      options.think_time = 1 * kSecond;
      background = std::make_unique<WebBrowser>(&rig.client(), options);
      background->Start();
      break;
    }
  }

  rig.sim().RunUntil(kHorizon);

  ScenarioResult result;
  result.messages_dropped = injector.messages_dropped();
  result.messages_offered = injector.messages_offered();

  std::ostringstream fp;
  fp.precision(17);

  switch (workload) {
    case Workload::kVideo: {
      result.completed = player->finished();
      result.before = player->MeanFidelityBetween(kBeforeBegin, kBeforeEnd);
      result.during = player->MeanFidelityBetween(kDuringBegin, kDuringEnd);
      result.after = player->MeanFidelityBetween(kAfterBegin, kAfterEnd);
      const int drops_before = player->DropsBetween(kBeforeBegin, kBeforeEnd);
      const int drops_during = player->DropsBetween(kDuringBegin, kDuringEnd);
      result.degraded = result.during < result.before - 1e-9 || drops_during > drops_before;
      fp << "video " << player->outcomes().size() << " " << player->track_switches();
      for (const FrameOutcome& outcome : player->outcomes()) {
        fp << " " << outcome.at << ":" << outcome.displayed << ":" << outcome.fidelity;
      }
      break;
    }
    case Workload::kWeb: {
      const auto& outcomes = browser->outcomes();
      result.completed = !outcomes.empty() && outcomes.back().started > kAfterBegin;
      result.before = browser->MeanFidelityBetween(kBeforeBegin, kBeforeEnd);
      result.during = browser->MeanFidelityBetween(kDuringBegin, kDuringEnd);
      result.after = browser->MeanFidelityBetween(kAfterBegin, kAfterEnd);
      result.degraded = result.during < result.before - 1e-9 || browser->failed_fetches() > 0;
      fp << "web " << outcomes.size() << " " << browser->failed_fetches();
      for (const WebFetchOutcome& outcome : outcomes) {
        fp << " " << outcome.started << ":" << outcome.elapsed << ":" << outcome.fidelity;
      }
      break;
    }
    case Workload::kSpeech: {
      const auto& outcomes = speech->outcomes();
      result.completed = !outcomes.empty() && outcomes.back().started > kAfterBegin;
      // For speech the figure of merit is recognition time (smaller is
      // better); negate so "during < before" still means degradation.
      result.before = -speech->MeanSecondsBetween(kBeforeBegin, kBeforeEnd);
      result.during = -speech->MeanSecondsBetween(kDuringBegin, kDuringEnd);
      result.after = -speech->MeanSecondsBetween(kAfterBegin, kAfterEnd);
      bool local_during = false;
      for (const RecognitionOutcome& outcome : outcomes) {
        if (outcome.started >= kDuringBegin && outcome.started < kDuringEnd &&
            outcome.plan == static_cast<int>(SpeechMode::kAlwaysLocal)) {
          local_during = true;
        }
      }
      result.degraded = result.during < result.before - 1e-9 || local_during;
      fp << "speech " << outcomes.size();
      for (const RecognitionOutcome& outcome : outcomes) {
        fp << " " << outcome.started << ":" << outcome.elapsed << ":" << outcome.plan;
      }
      break;
    }
  }
  fp << " | dropped=" << result.messages_dropped << " offered=" << result.messages_offered;
  result.fingerprint = fp.str();
  return result;
}

class FaultMatrixTest : public ::testing::TestWithParam<std::tuple<FaultKind, Workload>> {};

TEST_P(FaultMatrixTest, CompletesDegradesRecoversDeterministically) {
  const auto [fault, workload] = GetParam();
  const ScenarioResult result = RunScenario(fault, workload, /*seed=*/1);

  // (a) No hung callbacks: the workload kept producing outcomes well past
  // the fault window.
  EXPECT_TRUE(result.completed) << "workload stalled";

  // (b) Bounded retries: the message volume stays sane (a retry storm or
  // timeout loop would multiply it).
  EXPECT_LT(result.messages_offered, 100000u);
  if (fault == FaultKind::kDrop) {
    EXPECT_GT(result.messages_dropped, 0u);
  }

  // (c) Fidelity steps down during a windowed fault and recovers after.
  if (fault != FaultKind::kDrop) {
    EXPECT_TRUE(result.degraded) << "no degradation signal during the fault";
    EXPECT_GT(result.after, result.during - 1e-9) << "no recovery after the fault";
    if (workload != Workload::kSpeech) {
      // Fidelity metrics are positive; recovery should reach at least half
      // of the pre-fault quality.  (Speech's metric is a negated mean
      // recognition time, for which this bound is meaningless.)
      EXPECT_GT(result.after, 0.5 * result.before - 1e-9) << "recovery too weak";
    }
  }

  // (d) Identical seeds reproduce identical outcomes, byte for byte.
  const ScenarioResult replay = RunScenario(fault, workload, /*seed=*/1);
  EXPECT_EQ(result.fingerprint, replay.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllWardens, FaultMatrixTest,
    ::testing::Combine(::testing::Values(FaultKind::kDrop, FaultKind::kOutage,
                                         FaultKind::kLatencySpike, FaultKind::kServerStall),
                       ::testing::Values(Workload::kVideo, Workload::kWeb, Workload::kSpeech)),
    [](const ::testing::TestParamInfo<std::tuple<FaultKind, Workload>>& param_info) {
      return std::string(FaultKindName(std::get<0>(param_info.param))) +
             WorkloadName(std::get<1>(param_info.param));
    });

// --- End-to-end total loss through the full stack ------------------------

TEST(TotalLossTest, WebBrowserDegradesInsteadOfHanging) {
  ExperimentRig rig(1, "odyssey");
  rig.client().set_retry_policy(RetryPolicy::Default());
  FaultInjector injector(&rig.sim(), &rig.link());
  rig.client().set_fault_injector(&injector);

  WebBrowserOptions options;
  options.url = kTestImageUrl;
  options.think_time = 100 * kMillisecond;
  WebBrowser browser(&rig.client(), options);
  browser.Start();
  // Let the session open and one clean fetch complete, then lose everything.
  rig.sim().RunUntil(5 * kSecond);
  ASSERT_FALSE(browser.outcomes().empty());
  injector.Arm(FaultPlan().WithDropProbability(1.0));
  rig.sim().RunUntil(45 * kSecond);

  // The loop is still alive, every fetch since the loss failed cleanly, and
  // the collapsed supply estimate reads as disconnection.
  EXPECT_TRUE(browser.running());
  EXPECT_GT(browser.failed_fetches(), 0);
  const auto& outcomes = browser.outcomes();
  ASSERT_GT(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes.back().failed);
  EXPECT_GT(outcomes.back().started, 30 * kSecond);
  ASSERT_NE(rig.centralized(), nullptr);
  EXPECT_DOUBLE_EQ(rig.centralized()->supply_model().TotalSupply(), 0.0);
}

}  // namespace
}  // namespace odyssey
