// The benchmark's workloads and the runner that times them.
//
// A workload is a factory of trials.  A trial builds its rig in SetUp() (the
// set-up the setup_s metric times), runs its fixed virtual-time schedule in
// Run() (the timed phase), and then reports what the simulation produced.
// Every repetition of one seed must produce the same digest, traced or not.

#ifndef ODYBENCH_SRC_WORKLOAD_H_
#define ODYBENCH_SRC_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ledger.h"

namespace odybench {

// Deterministic per-trial counts, read from the modules' public accessors.
struct LayerCounts {
  uint64_t sim_events = 0;        // Simulation::events_processed
  double net_bytes = 0.0;         // Link::bytes_delivered
  double flows_mean = 0.0;        // Link::active_flow_count, sampled after each run step
  uint64_t flows_max = 0;
  uint64_t upcalls_delivered = 0;  // UpcallDispatcher::delivered_count
  uint64_t upcalls_queued_max = 0;
  double upcall_latency_ms_mean = 0.0;  // virtual ms, post to delivery
  uint64_t scan_ops = 0;                // SupplyModelInterface::scan_ops
  uint64_t requests = 0;                // Request calls, re-centering retries included
  uint64_t registrations = 0;           // Request calls that registered a window
  uint64_t cancels = 0;                 // Cancel calls
  uint64_t cancels_lost = 0;            // cancels that lost the race with an upcall
  uint64_t violations = 0;              // oracle violations
};

// What one trial produced.
struct TrialResult {
  uint64_t digest = 0;       // the simulated output (see each workload)
  double sim_seconds = 0.0;  // virtual seconds the timed phase advanced
  uint64_t cycles = 0;       // adaptation cycles finished in the timed phase
  uint64_t attempted = 0;    // operations attempted (registrations or scenarios)
  uint64_t failed = 0;       // operations failed
  double register_s = 0.0;   // host seconds of set-up spent registering
  // Host seconds of each step of the timed phase: a run step of the
  // simulation, or one fuzz_mix scenario.  Every trial of a seed takes the
  // same steps, doing the same work.
  std::vector<double> step_s;
  std::vector<double> run_ms;  // fuzz_mix: host ms per scenario
  LayerCounts counts;

  // Filled by RunTrial.
  double setup_s = 0.0;
  double timed_s = 0.0;
  double rss_after_setup_mb = 0.0;
  std::array<int64_t, kLayerCount> self_ns{};  // timed phase only
  std::array<uint64_t, kLayerCount> calls{};   // timed phase only
};

class Trial {
 public:
  virtual ~Trial() = default;
  // Builds the rig: apps, connections, initial windows, warm-up.
  virtual void SetUp() = 0;
  // The timed phase: a fixed virtual-time schedule, run to completion.
  virtual void Run() = 0;
  // The digest, counts and operation totals of the finished run.
  virtual TrialResult Result() = 0;
};

// |ledger| is null for untraced trials.
using TrialFactory = std::unique_ptr<Trial> (*)(uint64_t seed, Ledger* ledger);

// Why each workload exists is recorded beside its name in BENCHMARK.json.
struct Workload {
  const char* name;
  TrialFactory make;
};

// storm_10k, stream_256 and fuzz_mix.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// Sizes of the workloads.  The self-tests shrink them.
struct StormParams {
  int apps = 10000;
  int hot_connections = 64;
  int cancel_sweep = 256;
  size_t max_audited_connections = 2048;
};
struct FuzzMixParams {
  int scenarios = 800;
};

std::unique_ptr<Trial> MakeStormTrial(const StormParams& params, uint64_t seed, Ledger* ledger);
std::unique_ptr<Trial> MakeStreamTrial(uint64_t seed, Ledger* ledger);
std::unique_ptr<Trial> MakeFuzzMixTrial(const FuzzMixParams& params, uint64_t seed,
                                        Ledger* ledger);

// Sets the trial up and runs it, timing both phases on the host clock and
// charging the timed phase to a root "bench" span when traced.
TrialResult RunTrial(Trial* trial, Ledger* ledger);

// Host speed on a shared machine drops by 20-40% in bursts that last from a
// fraction of a second to tens of seconds, which a median over a run's trials
// passes straight through.  Every trial of a seed takes the same steps doing
// the same work, so the timed phase of |trials| (at least one) is taken as the
// sum over its steps of each step's fastest repetition, plus the fastest time
// outside the steps.  This min-of-k per step is steadier from run to run than
// the fastest whole trial.
double FastestTimedPhase(const std::vector<TrialResult>& trials);
// The fastest set-up of |trials| (at least one).
double FastestSetUp(const std::vector<TrialResult>& trials);

// Current resident set of this process, in MB (0 if unknown).
double CurrentRssMb();
// Peak resident set of this process so far, in MB.
double PeakRssMb();

}  // namespace odybench

#endif  // ODYBENCH_SRC_WORKLOAD_H_
