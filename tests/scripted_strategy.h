// A bandwidth strategy whose level is set by hand, for tests that drive a
// real Viceroy's request/upcall loop without an estimator behind it.

#ifndef TESTS_SCRIPTED_STRATEGY_H_
#define TESTS_SCRIPTED_STRATEGY_H_

#include <string>

#include "src/core/resource.h"
#include "src/sim/time.h"
#include "src/strategies/arbitration_strategy.h"

namespace odyssey {

// Refuses every bandwidth window while |reject| is set, and counts its
// admission decisions (one per registration attempt that passes the level
// check).
class ScriptedStrategy : public ArbitrationStrategy {
 public:
  std::string name() const override { return "scripted"; }
  void AttachConnection(AppId, Endpoint*) override {}
  void DetachConnection(Endpoint*) override {}
  double AvailabilityFor(AppId, Time) const override { return level; }
  bool HasEstimate() const override { return true; }
  double TotalSupply(Time) const override { return level; }
  Duration SmoothedRttFor(AppId) const override { return 0; }
  AdmissionDecision DecideAdmission(AppId, const ResourceDescriptor&, Time) override {
    ++decisions;
    AdmissionDecision decision;
    if (reject) {
      decision.verdict = AdmissionVerdict::kRejected;
    }
    return decision;
  }

  // Moves the level and lets the viceroy re-evaluate its windows.
  void MoveTo(double to) {
    level = to;
    NotifyChanged();
  }

  double level = 100.0 * 1024;
  bool reject = false;
  int decisions = 0;
};

}  // namespace odyssey

#endif  // TESTS_SCRIPTED_STRATEGY_H_
