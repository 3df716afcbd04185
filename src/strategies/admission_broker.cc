#include "src/strategies/admission_broker.h"

#include <set>
#include <utility>

#include "src/core/contract.h"
#include "src/trace/trace_macros.h"

namespace odyssey {

AdmissionBrokerStrategy::AdmissionBrokerStrategy(Simulation* sim,
                                                 std::unique_ptr<CentralizedStrategy> inner)
    : sim_(sim), inner_(std::move(inner)) {
  ODY_ASSERT(inner_ != nullptr);
  // The inner estimator reports observation-driven movement here first, so
  // the broker re-arbitrates before the viceroy re-evaluates windows.
  inner_->SetChangeCallback([this] { OnInnerChanged(); });  // ody_lint: owned-capture
}

void AdmissionBrokerStrategy::AttachConnection(AppId app, Endpoint* endpoint) {
  inner_->AttachConnection(app, endpoint);
}

void AdmissionBrokerStrategy::DetachConnection(Endpoint* endpoint) {
  inner_->DetachConnection(endpoint);
}

double AdmissionBrokerStrategy::AvailabilityFor(AppId app, Time now) const {
  const double base = inner_->AvailabilityFor(app, now);
  const auto it = degraded_.find(app);
  if (it == degraded_.end()) {
    return base;
  }
  return base < it->second ? base : it->second;
}

double AdmissionBrokerStrategy::CommittedTotal() const {
  double total = 0.0;
  for (const auto& [id, commitment] : commitments_) {
    (void)id;
    total += commitment.lower;
  }
  return total;
}

AdmissionDecision AdmissionBrokerStrategy::DecideAdmission(AppId app,
                                                           const ResourceDescriptor& descriptor,
                                                           Time now) {
  AdmissionDecision decision;
  if (!inner_->HasEstimate()) {
    // Nothing observed yet: admit optimistically, like the seed strategy.
    decision.reason = "no-estimate";
    decision.reason_code = kReasonNoEstimate;
  } else {
    const double supply = inner_->TotalSupply(now);
    if (CommittedTotal() + descriptor.lower <= supply) {
      decision.reason = "ok";
      decision.reason_code = kReasonOk;
    } else {
      decision.verdict = AdmissionVerdict::kRejected;
      decision.reason = "over-committed";
      decision.reason_code = kReasonOverCommitted;
    }
  }
  decision.granted_level = AvailabilityFor(app, now);
  log_.push_back({now, app, 0, decision});
  pending_admit_ =
      decision.verdict == AdmissionVerdict::kRejected ? -1 : static_cast<int>(log_.size()) - 1;
  return decision;
}

void AdmissionBrokerStrategy::OnWindowRegistered(AppId app, RequestId id,
                                                 const ResourceDescriptor& descriptor) {
  if (descriptor.resource != ResourceId::kNetworkBandwidth) {
    return;
  }
  commitments_[id] = {app, descriptor.lower};
  if (pending_admit_ >= 0 && log_[static_cast<size_t>(pending_admit_)].app == app) {
    log_[static_cast<size_t>(pending_admit_)].request = id;
  }
  pending_admit_ = -1;
  // A freshly admitted window supersedes any standing degradation: the app
  // has re-registered at a fidelity the broker accepted.
  degraded_.erase(app);
}

void AdmissionBrokerStrategy::OnWindowCancelled(RequestId id) { commitments_.erase(id); }

void AdmissionBrokerStrategy::OnWindowConsumed(RequestId id) { commitments_.erase(id); }

void AdmissionBrokerStrategy::OnInnerChanged() {
  if (inner_->HasEstimate() && !commitments_.empty()) {
    const Time now = sim_->now();
    const double supply = inner_->TotalSupply(now);
    double committed = CommittedTotal();
    if (committed > supply) {
      // Overload: shed the largest commitments (lowest request id on ties)
      // until the rest fit.  Every victim app is capped at the fair share
      // of supply across the apps holding commitments at pass start, which
      // pushes it below its window's lower bound whenever that bound
      // exceeds the fair share — the upcall that follows tells the app to
      // re-register at a lower fidelity tier.
      std::set<AppId> holders;
      for (const auto& [id, commitment] : commitments_) {
        (void)id;
        holders.insert(commitment.app);
      }
      const double cap = supply / static_cast<double>(holders.size());
      while (committed > supply && !commitments_.empty()) {
        auto victim = commitments_.begin();
        for (auto it = commitments_.begin(); it != commitments_.end(); ++it) {
          if (it->second.lower > victim->second.lower) {
            victim = it;
          }
        }
        degraded_[victim->second.app] = cap;
        log_.push_back({now, victim->second.app, victim->first,
                        {AdmissionVerdict::kDegraded, "overload-degrade", kReasonOverloadDegrade,
                         cap}});
        ODY_TRACE_INSTANT2(sim_->trace(), kViceroy, "admission_degrade", now, victim->second.app,
                           "request", static_cast<double>(victim->first), "cap_bps", cap);
        committed -= victim->second.lower;
        commitments_.erase(victim);
      }
    }
  }
  NotifyChanged();
}

}  // namespace odyssey
