// Microbenchmarks for the core Odyssey mechanisms (google-benchmark).
//
// The paper argues the user-level architecture is cheap enough for agile
// adaptation; these measure the per-operation costs of the mechanisms on
// the adaptation path: event scheduling, upcall delivery, request
// registration, estimator updates, and tsop dispatch.

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/core/odyssey_client.h"
#include "src/core/request_table.h"
#include "src/core/tsop_codec.h"
#include "src/core/upcall.h"
#include "src/estimator/connection_estimator.h"
#include "src/estimator/supply_model.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"
#include "src/strategies/laissez_faire.h"
#include "src/trace/trace_macros.h"
#include "src/trace/trace_recorder.h"
#include "src/wardens/bitstream_warden.h"

namespace odyssey {
namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  Simulation sim;
  int sink = 0;
  for (auto _ : state) {
    sim.Schedule(1, [&] { ++sink; });  // ody_lint: owned-capture
    sim.Step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventScheduleAndRun);

void BM_EventCancel(benchmark::State& state) {
  Simulation sim;
  for (auto _ : state) {
    EventHandle handle = sim.Schedule(1000000, [] {});
    handle.Cancel();
  }
}
BENCHMARK(BM_EventCancel);

void BM_UpcallPostAndDeliver(benchmark::State& state) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  int sink = 0;
  UpcallHandler handler = [&](RequestId, ResourceId, double) { ++sink; };
  for (auto _ : state) {
    dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0, handler);
    sim.Step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_UpcallPostAndDeliver);

void BM_RequestRegisterCancel(benchmark::State& state) {
  RequestTable table;
  ResourceDescriptor descriptor{ResourceId::kNetworkBandwidth, 0.0, 1e9, nullptr};
  for (auto _ : state) {
    const RequestId id = table.Register(1, descriptor);
    benchmark::DoNotOptimize(table.Cancel(id));
  }
}
BENCHMARK(BM_RequestRegisterCancel);

void BM_RequestTableTakeViolated(benchmark::State& state) {
  // A table with many registered windows, one violated per call.
  std::vector<RequestTable::Entry> violated;
  for (auto _ : state) {
    state.PauseTiming();
    RequestTable table;
    for (int i = 0; i < state.range(0); ++i) {
      table.Register(i, ResourceDescriptor{ResourceId::kNetworkBandwidth,
                                           static_cast<double>(i), 1e12, nullptr});
    }
    state.ResumeTiming();
    table.TakeViolated(ResourceId::kNetworkBandwidth, state.range(0) - 1, 0.0, &violated);
    benchmark::DoNotOptimize(violated.data());
  }
}
BENCHMARK(BM_RequestTableTakeViolated)->Arg(16)->Arg(256);

void BM_EstimatorThroughputUpdate(benchmark::State& state) {
  ConnectionEstimator estimator;
  ThroughputObservation obs{0, 65536.0, 521 * kMillisecond};
  for (auto _ : state) {
    obs.at += 500 * kMillisecond;
    benchmark::DoNotOptimize(estimator.OnThroughput(obs));
  }
}
BENCHMARK(BM_EstimatorThroughputUpdate);

void BM_SupplyModelObservation(benchmark::State& state) {
  SupplyModel model;
  const int connections = static_cast<int>(state.range(0));
  for (int i = 0; i < connections; ++i) {
    model.AddConnection(i + 1);
  }
  ThroughputObservation obs{0, 65536.0, 521 * kMillisecond};
  ConnectionId next = 1;
  for (auto _ : state) {
    obs.at += 50 * kMillisecond;
    model.OnThroughput(next, obs);
    next = next % connections + 1;
  }
  benchmark::DoNotOptimize(model.TotalSupply());
}
BENCHMARK(BM_SupplyModelObservation)->Arg(1)->Arg(4)->Arg(16);

// One availability query within a same-instant burst (the viceroy
// re-evaluating every app after one estimate change).  The queried
// connection is the one fed last, so its usage is live at every population
// size and each argument measures the same competed-for path; connection 1
// would age out of the usage window at the larger sizes and take the
// cheaper idle path instead.
void BM_AvailabilityQuery(benchmark::State& state) {
  SupplyModel model;
  const int connections = static_cast<int>(state.range(0));
  Time at = 0;
  for (int i = 0; i < connections; ++i) {
    model.AddConnection(i + 1);
    for (int w = 0; w < 8; ++w) {
      at += 50 * kMillisecond;
      model.OnThroughput(i + 1, {at, 65536.0, 521 * kMillisecond});
    }
  }
  const ConnectionId queried = static_cast<ConnectionId>(connections);
  if (model.UsageRateFor(queried, at) <= 0.0) {
    state.SkipWithError("queried connection has no live usage");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.AvailabilityFor(queried, at));
  }
}
BENCHMARK(BM_AvailabilityQuery)->Arg(1)->Arg(4)->Arg(16);

// --- Scaled-core microbenchmarks ----------------------------------------
//
// The scale work's claims, measured in isolation: event-queue operations
// stay logarithmic in the number of pending events, and an observation
// followed by an availability query is O(1) on the incremental supply
// model where the naive model rescans every connection.

void BM_EventQueuePushPopAtDepth(benchmark::State& state) {
  Simulation sim;
  // |range(0)| events pending far in the future form the standing depth.
  for (int i = 0; i < state.range(0); ++i) {
    sim.Schedule(kSecond * 1000000, [] {});
  }
  int sink = 0;
  for (auto _ : state) {
    sim.Schedule(1, [&] { ++sink; });  // ody_lint: owned-capture
    sim.Step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueuePushPopAtDepth)->Arg(1)->Arg(100)->Arg(10000);

void BM_EventCancelAtDepth(benchmark::State& state) {
  Simulation sim;
  for (int i = 0; i < state.range(0); ++i) {
    sim.Schedule(kSecond * 1000000, [] {});
  }
  for (auto _ : state) {
    EventHandle handle = sim.Schedule(kSecond * 500000, [] {});
    handle.Cancel();
  }
}
BENCHMARK(BM_EventCancelAtDepth)->Arg(1)->Arg(100)->Arg(10000);

// One observation plus one availability query against a population of
// |range(0)| connections — the per-event unit of work on the adaptation
// hot path.  Run with SupplyModel and NaiveSupplyModel to see the rescan
// cost the incremental model removes.
template <typename Model>
void RunSupplyRecompute(benchmark::State& state) {
  std::unique_ptr<SupplyModelInterface> model = std::make_unique<Model>();
  const int connections = static_cast<int>(state.range(0));
  Time at = 0;
  for (int i = 0; i < connections; ++i) {
    model->AddConnection(i + 1);
    at += kMillisecond;
    model->OnThroughput(i + 1, {at, 65536.0, 521 * kMillisecond});
  }
  ConnectionId next = 1;
  for (auto _ : state) {
    at += 50 * kMillisecond;
    model->OnThroughput(next, {at, 65536.0, 521 * kMillisecond});
    benchmark::DoNotOptimize(model->AvailabilityFor(next, at));
    next = next % connections + 1;
  }
}

void BM_SupplyRecomputeIncremental(benchmark::State& state) {
  RunSupplyRecompute<SupplyModel>(state);
}
BENCHMARK(BM_SupplyRecomputeIncremental)->Arg(1)->Arg(100)->Arg(10000);

void BM_SupplyRecomputeNaive(benchmark::State& state) {
  RunSupplyRecompute<NaiveSupplyModel>(state);
}
BENCHMARK(BM_SupplyRecomputeNaive)->Arg(1)->Arg(100)->Arg(10000);

void BM_TsopDispatch(benchmark::State& state) {
  Simulation sim;
  Link link(&sim, 1e9, 0);
  OdysseyClient client(&sim, &link, std::make_unique<LaissezFaireStrategy>());
  client.InstallWarden(std::make_unique<BitstreamWarden>());
  const AppId app = client.RegisterApplication("bench");
  const std::string path = std::string(kOdysseyRoot) + "bitstream/stream";
  for (auto _ : state) {
    // An unknown opcode exercises resolution + dispatch + completion.
    client.Tsop(app, path, 999, "", [](Status, std::string) {});
  }
}
BENCHMARK(BM_TsopDispatch);

void BM_TsopCodecRoundTrip(benchmark::State& state) {
  BitstreamParams params{1234.0, 65536.0};
  for (auto _ : state) {
    const std::string packed = PackStruct(params);
    BitstreamParams out;
    benchmark::DoNotOptimize(UnpackStruct(packed, &out));
  }
}
BENCHMARK(BM_TsopCodecRoundTrip);

// Tracing cost, both sides of the opt-in switch: recording one instant into
// an enabled ring buffer, and the same macro against a null recorder (the
// state every instrumented call site is in on untraced runs — the <1%
// regression budget for the instrumentation rests on this being a single
// predictable branch).
void BM_TraceInstantRecord(benchmark::State& state) {
  TraceRecorder recorder(1 << 16, TraceRecorder::OverflowPolicy::kOverwriteOldest);
  Time now = 0;
  for (auto _ : state) {
    ++now;
    ODY_TRACE_INSTANT1(&recorder, kSim, "bench_tick", now, 1, "value", 42);
  }
  benchmark::DoNotOptimize(recorder.recorded_count());
}
BENCHMARK(BM_TraceInstantRecord);

void BM_TraceRecordDisabled(benchmark::State& state) {
  TraceRecorder* recorder = nullptr;
  benchmark::DoNotOptimize(recorder);
  Time now = 0;
  for (auto _ : state) {
    ++now;
    ODY_TRACE_INSTANT1(recorder, kSim, "bench_tick", now, 1, "value", 42);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceRecordDisabled);

void BM_UpcallPostAndDeliverTraced(benchmark::State& state) {
  Simulation sim;
  TraceRecorder recorder(1 << 16, TraceRecorder::OverflowPolicy::kOverwriteOldest);
  sim.set_trace(&recorder);
  UpcallDispatcher dispatcher(&sim);
  int sink = 0;
  UpcallHandler handler = [&](RequestId, ResourceId, double) { ++sink; };
  for (auto _ : state) {
    dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0, handler);
    sim.Step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_UpcallPostAndDeliverTraced);

}  // namespace
}  // namespace odyssey

BENCHMARK_MAIN();
