// Pieces the storm_10k and stream_256 rigs share: the strategy (decorated
// for tracing when a ledger is given), the oracle hooks that also fold the
// delivered-upcall stream into the digest, the adaptive window loop, the
// stepping loop, and the counts read from public accessors.

#ifndef ODYBENCH_SRC_RIG_H_
#define ODYBENCH_SRC_RIG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/check/oracles.h"
#include "src/core/bandwidth_strategy.h"
#include "src/core/upcall.h"
#include "src/core/viceroy.h"
#include "src/ledger.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"
#include "src/workload.h"

namespace odybench {

// A CentralizedStrategy, wrapped in TracedStrategy when |ledger| is set.
std::unique_ptr<odyssey::BandwidthStrategy> MakeStrategy(odyssey::Simulation* sim, Ledger* ledger);

// Connects |oracle| to the simulation and the upcall dispatcher for this
// object's lifetime, and digests every delivered upcall (app, seq, level,
// delivery time).  All pointers must outlive it.
class OracleHooks {
 public:
  OracleHooks(odyssey::Simulation* sim, odyssey::UpcallDispatcher* upcalls,
              odyssey::OracleSet* oracle, Ledger* ledger);
  ~OracleHooks();

  OracleHooks(const OracleHooks&) = delete;
  OracleHooks& operator=(const OracleHooks&) = delete;

  uint64_t digest() const { return digest_.value(); }
  // Most upcalls queued at any delivery.
  uint64_t queued_max() const { return queued_max_; }

 private:
  odyssey::Simulation* sim_;
  odyssey::UpcallDispatcher* upcalls_;
  Digest digest_;
  uint64_t queued_max_ = 0;
};

// The §4.2 adaptive loop: each app holds a [0.7x, 1.3x] bandwidth window,
// re-registered from its own upcall, and re-centered on the level a denial
// reports.  Every registration and cancel is reported to the oracles.
class WindowLoop {
 public:
  WindowLoop(odyssey::Viceroy* viceroy, odyssey::OracleSet* oracle, Ledger* ledger)
      : viceroy_(viceroy), oracle_(oracle), ledger_(ledger) {}

  WindowLoop(const WindowLoop&) = delete;
  WindowLoop& operator=(const WindowLoop&) = delete;

  // Registers a window for |app| around its current level.
  void Start(odyssey::AppId app);
  // Cancels |app|'s window and registers a fresh one around its current
  // level.  A cancel that fails lost the race with an in-flight upcall,
  // whose handler re-registers instead.
  void Recycle(odyssey::AppId app);
  // Delivered upcalls stop re-registering.
  void Stop() { stopped_ = true; }

  // Delivered bandwidth upcalls whose handler re-registered a window.
  uint64_t cycles() const { return cycles_; }
  // Registrations attempted (each up to kAttempts requests) and those that
  // ran out of attempts.
  uint64_t attempted() const { return attempted_; }
  uint64_t exhausted() const { return exhausted_; }
  uint64_t requests() const { return requests_; }
  uint64_t registrations() const { return registrations_; }
  uint64_t cancels() const { return cancels_; }
  uint64_t cancels_lost() const { return cancels_lost_; }

 private:
  static constexpr int kAttempts = 4;

  bool Register(odyssey::AppId app, double level);
  odyssey::RequestId& current(odyssey::AppId app);

  odyssey::Viceroy* viceroy_;
  odyssey::OracleSet* oracle_;
  Ledger* ledger_;
  std::vector<odyssey::RequestId> current_;  // by app id; 0 = no window
  bool stopped_ = false;
  uint64_t cycles_ = 0;
  uint64_t attempted_ = 0;
  uint64_t exhausted_ = 0;
  uint64_t requests_ = 0;
  uint64_t registrations_ = 0;
  uint64_t cancels_ = 0;
  uint64_t cancels_lost_ = 0;
};

// What Drive records for every run step: Link::active_flow_count after it,
// and its host time.
struct StepSamples {
  double flow_sum = 0.0;
  uint64_t flow_max = 0;
  std::vector<double> host_s;
};

// Runs |sim| to |until| in |step| increments, each inside a "sim" span,
// timing each and sampling |link|'s active flows after each.
void Drive(odyssey::Simulation* sim, const odyssey::Link& link, odyssey::Time until,
           odyssey::Duration step, Ledger* ledger, StepSamples* steps);

// The rig's lifetime counts from public accessors, with the flow and queue
// samples taken so far.  The timed phase's counts are the difference of a
// reading at its start and one at its end (Subtract).
LayerCounts ReadCounts(const odyssey::Simulation& sim, const odyssey::Link& link,
                       odyssey::Viceroy* viceroy, const WindowLoop& loop,
                       const odyssey::OracleSet& oracle, const OracleHooks& hooks,
                       const StepSamples& steps);
// |end| minus |start| for the lifetime counts; the sampled figures (flows,
// queue peak, latency) are taken from |end|.
LayerCounts Subtract(const LayerCounts& end, const LayerCounts& start);

// The digest of a finished rig: the upcall stream plus its final counters.
uint64_t RigDigest(const OracleHooks& hooks, const LayerCounts& lifetime, uint64_t cycles);

}  // namespace odybench

#endif  // ODYBENCH_SRC_RIG_H_
