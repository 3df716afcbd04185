// Executes one FuzzScenario against full Odyssey stacks under oracles.
//
// RunFuzzScenario is the one fuzz runner.  A single-node scenario builds a
// fresh shared-nothing ExperimentRig (the scenario's strategy, the
// six-warden FuzzServers, the link at the first segment) plus a fault
// injector.  A fleet scenario (fleet_nodes >= 2) instead builds one
// FuzzServers and a Fleet of that many client nodes (src/fleet/fleet_node.h),
// each on its own waveform (FleetNodeScenario) and fault stream, sharing
// server estimates through the aggregation protocol, with the fleet-level
// oracles armed as well.  Both rigs then go through the same run loop:
// attach the invariant oracles, drive the scenario's per-app operation
// schedule (apps dealt round-robin across the nodes), and return every
// violation the oracles recorded.
// The result is a pure function of (scenario, options): running the same
// scenario twice — on any thread, in any order, with any number of sibling
// runs — yields identical results, which is what seed replay and shrinking
// rely on.

#ifndef SRC_CHECK_FUZZ_RUNNER_H_
#define SRC_CHECK_FUZZ_RUNNER_H_

#include <cstdint>
#include <vector>

#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/sim/time.h"

namespace odyssey {

class TraceRecorder;

// Whether the intentionally seeded oracle-violation mutation was compiled
// in (-DODYSSEY_FUZZ_SELFTEST).  Release builds carry no mutation code.
#ifdef ODYSSEY_FUZZ_SELFTEST
inline constexpr bool kFuzzSelftestCompiled = true;
#else
inline constexpr bool kFuzzSelftestCompiled = false;
#endif

// One delivered upcall, as captured for differential comparison.  Two
// stacks that adapt identically produce identical record sequences.
struct UpcallRecord {
  AppId app = 0;
  uint64_t seq = 0;
  RequestId request = 0;
  ResourceId resource = ResourceId::kNetworkBandwidth;
  double level = 0.0;
  Time posted_at = 0;
  Time delivered_at = 0;

  bool operator==(const UpcallRecord&) const = default;
};

// Everything the differential tests compare between the production stack
// and the naive reference stack: the full upcall sequence and the
// availability figures observed at each periodic sample.
struct DifferentialLog {
  std::vector<UpcallRecord> upcalls;
  // Flat stream per sample: now, total supply, active count, then each
  // attached connection's availability in id order.  Bit-for-bit equality
  // is the pass criterion, so doubles are stored unrounded.
  std::vector<double> samples;
};

struct FuzzRunOptions {
  // Injects a deliberate duplicate upcall-delivery notification (node 0's
  // second upcall of every app is observed twice), so CI can verify
  // end-to-end that the oracles detect it and the shrinker minimizes it.  Only honored
  // when kFuzzSelftestCompiled; silently inert otherwise.
  bool selftest_mutation = false;
  // Second seeded mutation: removes the event queue's deterministic FIFO
  // tie-break (same-timestamp events pop newest-first), which the
  // same-time-order oracle must catch.  Only honored when
  // kFuzzSelftestCompiled; silently inert otherwise.
  bool selftest_tiebreak = false;
  // Extra virtual time after the horizon for queued upcalls and in-flight
  // transfers to drain before the stranded-upcall check.
  Duration drain_grace = 2 * kSecond;
  // Optional recorder for the canonical failure trace; borrowed.
  TraceRecorder* trace = nullptr;
  // Runs the pre-scale reference stack (RigSpec::reference) instead of the
  // production one.  The differential tests run every scenario both ways
  // and require identical DifferentialLogs.  Single-node only: a fleet
  // scenario ignores it.
  bool reference_stack = false;
  // When set, the run appends its upcall records and availability samples
  // here; borrowed.  Single-node only: a fleet scenario leaves it empty.
  DifferentialLog* differential = nullptr;
};

struct FuzzRunResult {
  std::vector<FuzzViolation> violations;  // capped per oracle; see OracleSet
  uint64_t violation_count = 0;           // uncapped total
  uint64_t upcalls_delivered = 0;
  uint64_t requests_granted = 0;
  uint64_t requests_denied = 0;
  // Denials where an admission-controlling strategy rejected the window
  // (subset of requests_denied; 0 for strategies without admission).
  uint64_t admission_rejects = 0;
  uint64_t cancels_ok = 0;
  uint64_t tsops_issued = 0;
  uint64_t tie_pairs_audited = 0;  // same-timestamp pairs the auditor saw
  double bytes_delivered = 0.0;

  bool ok() const { return violation_count == 0; }
};

FuzzRunResult RunFuzzScenario(const FuzzScenario& scenario, const FuzzRunOptions& options = {});

}  // namespace odyssey

#endif  // SRC_CHECK_FUZZ_RUNNER_H_
