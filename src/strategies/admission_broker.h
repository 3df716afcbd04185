// Admission-broker bandwidth strategy.
//
// A QoS layer atop centralized arbitration, after Al-Hawari & Manolakos's
// runtime QoS service: the broker tracks the bandwidth the client has
// *committed* to admitted windows of tolerance (each window's lower bound
// is an implicit reservation) and arbitrates new registrations against the
// estimated supply:
//
//   admit   — commitments plus the new window's lower bound fit within
//             supply, or no estimate exists yet (optimistic start);
//   reject  — the new window would over-commit the link; nothing is
//             registered and the application sees the structured
//             AdmissionDecision in its RequestResult;
//   degrade — when supply *drops* below the committed total, the broker
//             picks victims (largest commitment first, lowest request id
//             on ties), releases their commitments, and caps the victim
//             app's availability at its fair share of supply.  The cap
//             drives the app below its window, so the normal upcall path
//             tells it to re-register at a lower fidelity tier; the cap
//             lifts when the app's next window is admitted.
//
// Estimation is delegated wholesale to an inner CentralizedStrategy (any
// centralized-family strategy works, including the congestion manager), so
// the broker composes with fleet-aggregated supply models and keeps the
// full oracle surface via audit_surface().  Decisions are deterministic
// functions of observed history; every decision is appended to an
// inspectable log, which the property tests replay.

#ifndef SRC_STRATEGIES_ADMISSION_BROKER_H_
#define SRC_STRATEGIES_ADMISSION_BROKER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/strategies/arbitration_strategy.h"
#include "src/strategies/centralized.h"

namespace odyssey {

class AdmissionBrokerStrategy : public ArbitrationStrategy {
 public:
  // One admission decision, as logged.  |request| is 0 for rejects (nothing
  // was registered) and for admits until the registration lands.
  struct AdmissionEvent {
    Time at = 0;
    AppId app = 0;
    RequestId request = 0;
    AdmissionDecision decision;
  };

  // Reason codes (AdmissionDecision::reason_code) for trace consumers.
  enum ReasonCode : int {
    kReasonOk = 0,
    kReasonNoEstimate = 1,
    kReasonOverCommitted = 2,
    kReasonOverloadDegrade = 3,
  };

  AdmissionBrokerStrategy(Simulation* sim, std::unique_ptr<CentralizedStrategy> inner);

  // BandwidthStrategy (delegated to the inner estimator; availability is
  // capped for degraded apps):
  std::string name() const override { return "admission-broker"; }
  void AttachConnection(AppId app, Endpoint* endpoint) override;
  void DetachConnection(Endpoint* endpoint) override;
  double AvailabilityFor(AppId app, Time now) const override;
  bool HasEstimate() const override { return inner_->HasEstimate(); }
  double TotalSupply(Time now) const override { return inner_->TotalSupply(now); }
  Duration SmoothedRttFor(AppId app) const override { return inner_->SmoothedRttFor(app); }
  int ConnectionCountFor(AppId app) const override { return inner_->ConnectionCountFor(app); }
  AppId OwnerOf(ConnectionId connection) const override { return inner_->OwnerOf(connection); }
  // Degradation caps sit outside the inner strategy's idle-level
  // bookkeeping, so its exact hints would not describe what AvailabilityFor
  // reports: drain the inner hint unbuilt and return the full-scan form.
  ReevalHint TakeReevalHint(Time now) override {
    (void)now;
    inner_->DrainReevalHint();
    return {};
  }
  CentralizedStrategy* audit_surface() override { return inner_->audit_surface(); }

  // ArbitrationStrategy:
  AdmissionDecision DecideAdmission(AppId app, const ResourceDescriptor& descriptor,
                                    Time now) override;
  void OnWindowRegistered(AppId app, RequestId id, const ResourceDescriptor& descriptor) override;
  void OnWindowCancelled(RequestId id) override;
  void OnWindowConsumed(RequestId id) override;

  // Inspection surface for the property tests and tools.
  const std::vector<AdmissionEvent>& admission_log() const { return log_; }
  double CommittedTotal() const;
  bool IsDegraded(AppId app) const { return degraded_.count(app) != 0; }
  const CentralizedStrategy& inner() const { return *inner_; }

 private:
  struct Commitment {
    AppId app = 0;
    double lower = 0.0;
  };

  // Re-arbitrates after the inner estimator moves: degrades victims while
  // the committed total exceeds supply, then forwards the change.
  void OnInnerChanged();

  Simulation* sim_;
  std::unique_ptr<CentralizedStrategy> inner_;
  std::map<RequestId, Commitment> commitments_;  // admitted, not yet consumed
  std::map<AppId, double> degraded_;             // app -> availability cap
  std::vector<AdmissionEvent> log_;
  // Index into |log_| of the admit event awaiting its registration id; -1
  // when none is pending.  Registration follows the decision synchronously.
  int pending_admit_ = -1;
};

}  // namespace odyssey

#endif  // SRC_STRATEGIES_ADMISSION_BROKER_H_
