// The per-application fuzz driver and the scenario's fault plan, used by
// the fuzz runner (fuzz_runner.cc) on the single-node and the fleet rig
// alike.  The servers both rigs build are the FuzzServers of
// src/metrics/experiment.h.
//
// A FuzzDriver drives one fuzzed application: registers it, executes its op
// schedule at the scheduled virtual times, and keeps upcall traffic flowing
// by re-registering a window around the delivered level.  Every decision is
// a pure function of the scenario's op fields — the driver never draws from
// the simulation's random stream — so replays are exact.

#ifndef SRC_CHECK_FUZZ_DRIVER_H_
#define SRC_CHECK_FUZZ_DRIVER_H_

#include <memory>
#include <vector>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/odyssey_client.h"
#include "src/metrics/experiment.h"
#include "src/net/fault_injector.h"

namespace odyssey {

// The scenario's fault list as an armable plan.  The injector's
// probabilistic stream is rooted in the scenario seed but decoupled from
// both the Simulation and generator streams.
FaultPlan BuildFaultPlan(const FuzzScenario& scenario);

class FuzzDriver {
 public:
  // Cap on upcall-handler re-registrations per app, so a scenario's event
  // cascade is bounded no matter how lively the estimates are.
  static constexpr int kReregisterBudget = 128;

  FuzzDriver(OdysseyClient* client, OracleSet* oracle, const FuzzApp& app, int index,
             FuzzRunResult* result)
      : client_(client), oracle_(oracle), app_(app), index_(index), result_(result) {}

  FuzzDriver(const FuzzDriver&) = delete;
  FuzzDriver& operator=(const FuzzDriver&) = delete;

  void Start();

  // After the horizon the driver goes quiet: scheduled ops and upcall
  // handlers still fire, but take no further action.
  void Stop() { stopped_ = true; }

 private:
  void Execute(const FuzzOp& op);
  void DoRequest(double lo_frac, double hi_frac);
  void DoCancel(int variant);
  void DoTsop(const FuzzOp& op);

  OdysseyClient* client_;
  OracleSet* oracle_;
  const FuzzApp& app_;
  int index_;
  FuzzRunResult* result_;
  AppId app_id_ = 0;
  bool stopped_ = false;
  bool opened_ = false;
  bool streaming_ = false;
  bool subscribed_ = false;
  int reregister_budget_ = kReregisterBudget;
  std::vector<RequestId> outstanding_;
};

}  // namespace odyssey

#endif  // SRC_CHECK_FUZZ_DRIVER_H_
