#include "src/check/oracles.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "src/estimator/supply_model.h"

namespace odyssey {
namespace {

// Relative tolerance for comparisons between floating-point availability
// figures.  The model's arithmetic is exact by construction (no measured
// noise), so tolerances only have to absorb accumulated rounding.
double ShareEps(double supply) { return 1e-6 * supply + 1e-3; }

}  // namespace

void ScheduleAudits(Simulation* sim, Time until, std::function<void()> audit) {
  sim->Post(kAuditPeriod, [sim, until, audit = std::move(audit)]() mutable {
    if (sim->now() > until) {
      return;
    }
    audit();
    ScheduleAudits(sim, until, std::move(audit));
  });
}

std::string FormatViolations(const std::vector<FuzzViolation>& violations) {
  std::ostringstream out;
  for (const FuzzViolation& v : violations) {
    out << "  [" << v.oracle << "] t=" << DurationToSeconds(v.at) << "s";
    if (v.app != 0) {
      out << " app=" << v.app;
    }
    out << " " << v.detail << "\n";
  }
  return out.str();
}

OracleSet::OracleSet(const FuzzScenario& scenario, Simulation* sim, Viceroy* viceroy,
                     CentralizedStrategy* strategy, Link* link)
    : capacity_(scenario.segments),
      sim_(sim),
      viceroy_(viceroy),
      strategy_(strategy),
      link_(link) {}

void OracleSet::Arm(bool clock, DeliveryTap tap) {
  // Every hook borrows this oracle set; Finish() detaches them all before
  // the caller's stack unwinds.
  viceroy_->upcalls().set_delivery_observer(
      [this, tap = std::move(tap)](AppId app, uint64_t seq, RequestId request, ResourceId resource,
                                   double level, Time posted_at) {
        OnUpcallDelivered(app, seq, request, resource, level, posted_at);
        if (tap) {
          tap(app, seq, request, resource, level, posted_at);
        }
      });
  viceroy_->set_window_observer(this);
  if (clock) {
    sim_->set_step_observer([this](Time when) { OnStep(when); });
    sim_->set_tie_observer(
        [this](Time when, uint64_t prev_seq, uint64_t seq) { OnTieBreak(when, prev_seq, seq); });
  }
  armed_ = true;
  armed_clock_ = armed_clock_ || clock;
}

void OracleSet::Report(const std::string& oracle, AppId app, std::string detail) {
  ++total_violations_;
  const uint64_t seen = ++per_oracle_count_[oracle];
  if (seen <= kMaxRecordedPerOracle) {
    violations_.push_back(FuzzViolation{oracle, sim_->now(), app, std::move(detail)});
  }
}

void OracleSet::OnUpcallDelivered(AppId app, uint64_t seq, RequestId request,
                                  ResourceId resource, double level, Time posted_at) {
  // Exactly-once, in-order (§4.3): per-app sequence numbers are dense.
  if (app >= last_seq_.size()) {
    last_seq_.resize(app + 1);
  }
  uint64_t& last = last_seq_[app];
  if (seq <= last) {
    std::ostringstream detail;
    detail << "seq " << seq << " delivered after seq " << last;
    Report("upcall-duplicate", app, detail.str());
  } else if (seq != last + 1) {
    std::ostringstream detail;
    detail << "seq " << seq << " skipped past " << last << " (lost upcalls)";
    Report("upcall-lost", app, detail.str());
  }
  if (seq > last) {
    last = seq;
  }

  if (posted_at > sim_->now()) {
    std::ostringstream detail;
    detail << "posted_at " << posted_at << "us is in the future of " << sim_->now() << "us";
    Report("clock-monotonicity", app, detail.str());
  }

  if (level < 0.0 || !std::isfinite(level)) {
    std::ostringstream detail;
    detail << "delivered level " << level << " for " << ResourceName(resource);
    Report("upcall-window", app, detail.str());
  }

  Window* window = ledger_.Find(request);
  if (window != nullptr && window->cancelled) {
    // A cancel that returned ok proves the registration was still in the
    // table, which means no upcall had been posted for it — so none may
    // ever be delivered.
    std::ostringstream detail;
    detail << "request " << request << " was cancelled before any upcall was posted";
    Report("upcall-after-cancel", app, detail.str());
    return;
  }

  if (window == nullptr) {
    std::ostringstream detail;
    detail << "request " << request << " was never registered (or already consumed)";
    Report("upcall-unknown-request", app, detail.str());
    return;
  }

  // Window consistency: an upcall fires only when availability strays
  // OUTSIDE the registered window; a level inside it is a spurious upcall.
  const double eps = 1e-9 * (std::fabs(window->upper) < 1.0 ? 1.0 : std::fabs(window->upper));
  if (level > window->lower + eps && level < window->upper - eps) {
    std::ostringstream detail;
    detail << "level " << level << " lies inside window [" << window->lower << ", "
           << window->upper << "]";
    Report("upcall-window", app, detail.str());
  }
  if (window->app != app) {
    std::ostringstream detail;
    detail << "request " << request << " registered by app " << window->app
           << " but delivered to app " << app;
    Report("upcall-unknown-request", app, detail.str());
  }
  // The registration is consumed by the upcall; a second delivery for the
  // same id will now surface as upcall-unknown-request.
  ledger_.Erase(request);
}

void OracleSet::OnStep(Time when) {
  if (when < last_event_time_) {
    std::ostringstream detail;
    detail << "event at " << when << "us fires after event at " << last_event_time_ << "us";
    Report("clock-monotonicity", 0, detail.str());
  }
  if (when < sim_->now()) {
    std::ostringstream detail;
    detail << "event at " << when << "us fires behind the clock " << sim_->now() << "us";
    Report("clock-monotonicity", 0, detail.str());
  }
  if (when > last_event_time_) {
    last_event_time_ = when;
  }
}

void OracleSet::OnTieBreak(Time when, uint64_t prev_seq, uint64_t seq) {
  ++tie_pairs_audited_;
  // The tie-break key (when, seq) is a total order, so among events sharing
  // a timestamp the queue must pop in scheduling order: strictly increasing
  // seq.  Equal seqs are impossible (the queue allocates them densely), so
  // <= catches both inversion and duplication.
  if (seq <= prev_seq) {
    std::ostringstream detail;
    detail << "at " << when << "us event seq " << seq << " fired after seq " << prev_seq
           << " (same-timestamp ties must pop in scheduling order)";
    Report("same-time-order", 0, detail.str());
  }
}

void OracleSet::OnWindowRegistered(AppId app, RequestId id, double lower, double upper) {
  Window& window = ledger_[id];
  window.app = app;
  window.lower = lower;
  window.upper = upper;
}

void OracleSet::OnWindowCancelled(RequestId id) { ledger_[id].cancelled = true; }

void OracleSet::Sample() {
  const Time now = sim_->now();
  audited_at_ = -1;

  // Byte conservation: the link cannot deliver more than the nominal
  // waveform's integral (faults only take bandwidth away), and the lifetime
  // counter never decreases.
  const double bytes = link_->bytes_delivered();
  if (bytes + 1e-6 < last_bytes_delivered_) {
    std::ostringstream detail;
    detail << "bytes_delivered fell from " << last_bytes_delivered_ << " to " << bytes;
    Report("byte-conservation", 0, detail.str());
  }
  last_bytes_delivered_ = bytes;
  const double bound = capacity_bytes_.IntegralBytes(now) * 1.01 + 8192.0;
  if (bytes > bound) {
    std::ostringstream detail;
    detail << "delivered " << bytes << " bytes > nominal capacity integral " << bound;
    Report("byte-conservation", 0, detail.str());
  }

  if (strategy_ == nullptr || !strategy_->HasEstimate()) {
    return;
  }
  const SupplyModelInterface& model = strategy_->supply_model();
  const double supply = model.TotalSupply();
  if (!std::isfinite(supply) || supply < 0.0) {
    std::ostringstream detail;
    detail << "total supply estimate " << supply;
    Report("supply-bounds", 0, detail.str());
    return;
  }

  const std::vector<ConnectionId>& connections = strategy_->AttachedConnections();
  const int active = model.ActiveConnectionCount(now);
  if (!connections.empty() && active < 1) {
    std::ostringstream detail;
    detail << connections.size() << " connections attached but active count is " << active;
    Report("supply-bounds", 0, detail.str());
  }

  // Fair share (§6.2.1): every connection is guaranteed at least the fair
  // share a hypothetical extra connection would get, and never more than
  // the whole supply.  At 100k connections a full audit per sample would
  // dominate the run, so past the cap each sample audits a rotating window
  // — every connection is still visited regularly across samples.
  const double floor = supply / static_cast<double>(active + 1);
  const double eps = ShareEps(supply);
  size_t begin = 0;
  size_t count = connections.size();
  if (max_audited_connections_ > 0 && count > max_audited_connections_) {
    begin = audit_cursor_ % count;
    count = max_audited_connections_;
    audit_cursor_ += count;
  }
  audited_.clear();
  for (size_t i = 0; i < count; ++i) {
    const ConnectionId connection = connections[(begin + i) % connections.size()];
    const double availability = strategy_->ConnectionAvailability(connection, now);
    audited_.push_back(availability);
    if (availability + eps < floor) {
      std::ostringstream detail;
      detail << "connection " << connection << " availability " << availability
             << " below fair-share floor " << floor << " (supply " << supply << ", active "
             << active << ")";
      Report("fair-share", 0, detail.str());
    }
    if (availability > supply + eps) {
      std::ostringstream detail;
      detail << "connection " << connection << " availability " << availability
             << " exceeds supply " << supply;
      Report("fair-share", 0, detail.str());
    }
    const ConnectionEstimator* estimator = model.EstimatorFor(connection);
    if (estimator != nullptr) {
      const double bandwidth = estimator->bandwidth_bps();
      const auto rtt = static_cast<double>(estimator->smoothed_rtt());
      if (!std::isfinite(bandwidth) || bandwidth < 0.0) {
        std::ostringstream detail;
        detail << "connection " << connection << " smoothed bandwidth " << bandwidth;
        Report("ewma-bounds", 0, detail.str());
      }
      if (rtt < 0.0) {
        std::ostringstream detail;
        detail << "connection " << connection << " smoothed rtt " << rtt << "us";
        Report("ewma-bounds", 0, detail.str());
      }
    }
  }
  if (count == connections.size()) {
    audited_at_ = now;
  }
}

void OracleSet::Finish() {
  if (armed_) {
    viceroy_->upcalls().set_delivery_observer({});
    viceroy_->set_window_observer(nullptr);
  }
  if (armed_clock_) {
    sim_->set_step_observer({});
    sim_->set_tie_observer({});
  }
  armed_ = false;
  armed_clock_ = false;
  Sample();
  // The fuzzer's drivers never Block() a receiver, so after the drain grace
  // period every posted upcall must have been delivered.
  const size_t queued = viceroy_->upcalls().queued_count();
  if (queued != 0) {
    std::ostringstream detail;
    detail << queued << " upcalls still queued after drain";
    Report("upcall-stranded", 0, detail.str());
  }
}

}  // namespace odyssey
