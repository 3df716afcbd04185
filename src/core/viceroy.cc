#include "src/core/viceroy.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "src/core/contract.h"
#include "src/strategies/arbitration_strategy.h"
#include "src/trace/trace_macros.h"

namespace odyssey {
namespace {

// Default levels for the statically managed resources of Figure 3(c).
// Battery: 8 hours; disk cache: 64 MB; CPU: a 90 MHz Pentium is roughly
// 2.9 SPECint95; money: a modest per-session budget.
constexpr double kDefaultDiskCacheKb = 64.0 * 1024.0;
constexpr double kDefaultCpuSpecint = 2.9;
constexpr double kDefaultBatteryMinutes = 480.0;
constexpr double kDefaultMoneyCents = 25.0;

}  // namespace

Viceroy::Viceroy(Simulation* sim, std::unique_ptr<BandwidthStrategy> strategy,
                 Duration upcall_latency)
    : sim_(sim), strategy_(std::move(strategy)), upcalls_(sim, upcall_latency) {
  static_levels_[ResourceId::kDiskCacheSpace] = kDefaultDiskCacheKb;
  static_levels_[ResourceId::kCpu] = kDefaultCpuSpecint;
  static_levels_[ResourceId::kBatteryPower] = kDefaultBatteryMinutes;
  static_levels_[ResourceId::kMoney] = kDefaultMoneyCents;
  strategy_->SetChangeCallback([this] { Reevaluate(); });
}

AppId Viceroy::RegisterApplication(std::string name) {
  apps_.push_back(std::move(name));
  return apps_.size();
}

const std::string& Viceroy::ApplicationName(AppId app) const {
  static const std::string kUnknown = "<unknown>";
  return app == 0 || app > apps_.size() ? kUnknown : apps_[app - 1];
}

void Viceroy::AttachConnection(AppId app, Endpoint* endpoint) {
  strategy_->AttachConnection(app, endpoint);
  // Window classes track the owner's connection count (see Request), so an
  // attach moves the app's existing windows to the new count's class.
  requests_.Reclassify(app, WindowClassOf(app));
}

void Viceroy::DetachConnection(Endpoint* endpoint) {
  const AppId app = strategy_->OwnerOf(endpoint->id());
  strategy_->DetachConnection(endpoint);
  if (app != 0) {
    requests_.Reclassify(app, WindowClassOf(app));
  }
}

uint32_t Viceroy::WindowClassOf(AppId app) const {
  const int count = strategy_->ConnectionCountFor(app);
  return count > 0 ? static_cast<uint32_t>(count) : 0;
}

RequestResult Viceroy::Request(AppId app, ResourceDescriptor descriptor) {
  // A window of tolerance is an interval (Figure 3b); an inverted one is a
  // caller bug that would make every level "out of bounds".
  ODY_DCHECK(descriptor.lower <= descriptor.upper, "inverted window of tolerance");
  RequestResult result;
  result.current_level = CurrentLevel(app, descriptor.resource);
  if (result.current_level < descriptor.lower || result.current_level > descriptor.upper) {
    result.status_ok = false;
    ODY_TRACE_INSTANT2(sim_->trace(), kViceroy, "request_denied", sim_->now(), app, "resource",
                       static_cast<int>(descriptor.resource), "level", result.current_level);
    return result;
  }
  // The level fits the window; an admission-controlling strategy now gets
  // exactly one decision per registration attempt for bandwidth windows.
  ArbitrationStrategy* broker = strategy_->arbitration();
  if (broker != nullptr && descriptor.resource == ResourceId::kNetworkBandwidth) {
    result.admission = broker->DecideAdmission(app, descriptor, sim_->now());
    ODY_TRACE_INSTANT2(sim_->trace(), kViceroy, "admission_decision", sim_->now(), app, "verdict",
                       static_cast<int>(result.admission.verdict), "reason",
                       result.admission.reason_code);
    if (result.admission.verdict == AdmissionVerdict::kRejected) {
      result.status_ok = false;
      return result;
    }
  }
  result.status_ok = true;
  // The listeners below see the window's bounds; the handler itself moves
  // into the table.
  const ResourceDescriptor window{descriptor.resource, descriptor.lower, descriptor.upper, {}};
  result.id = requests_.Register(app, std::move(descriptor), WindowClassOf(app));
  if (broker != nullptr) {
    broker->OnWindowRegistered(app, result.id, window);
  }
  if (window_observer_ != nullptr) {
    window_observer_->OnWindowRegistered(app, result.id, window.lower, window.upper);
  }
  ODY_TRACE_INSTANT2(sim_->trace(), kViceroy, "request_granted", sim_->now(), app, "lower",
                     window.lower, "upper", window.upper);
  return result;
}

Status Viceroy::Cancel(RequestId id) {
  ODY_TRACE_INSTANT(sim_->trace(), kViceroy, "request_cancel", sim_->now(), id);
  const Status status = requests_.Cancel(id);
  if (status.ok()) {
    if (ArbitrationStrategy* broker = strategy_->arbitration()) {
      broker->OnWindowCancelled(id);
    }
    if (window_observer_ != nullptr) {
      window_observer_->OnWindowCancelled(id);
    }
  }
  return status;
}

double Viceroy::CurrentLevel(AppId app, ResourceId resource) const {
  switch (resource) {
    case ResourceId::kNetworkBandwidth:
      return strategy_->AvailabilityFor(app, sim_->now());
    case ResourceId::kNetworkLatency:
      return static_cast<double>(strategy_->SmoothedRttFor(app));
    default: {
      const auto it = static_levels_.find(resource);
      return it == static_levels_.end() ? 0.0 : it->second;
    }
  }
}

void Viceroy::SetStaticLevel(ResourceId resource, double level) {
  if (resource == ResourceId::kNetworkBandwidth || resource == ResourceId::kNetworkLatency) {
    return;  // estimation-driven; not settable
  }
  static_levels_[resource] = level;
  ODY_TRACE_INSTANT1(sim_->trace(), kViceroy, "static_level", sim_->now(),
                     static_cast<uint64_t>(resource), "level", level);
  // A static level is the same for every app, so the interval index
  // answers "whose windows does this violate" directly; the sort restores
  // ascending app order across the index's window classes.
  ArbitrationStrategy* broker = strategy_->arbitration();
  candidates_.clear();
  requests_.CollectViolatedApps(resource, level, &candidates_);
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()), candidates_.end());
  for (const AppId app : candidates_) {
    EvaluateApp(app, resource, level, broker);
  }
}

void Viceroy::Reevaluate() {
  ReevalHint hint = strategy_->TakeReevalHint(sim_->now());
  if (hint.exact) {
    // A non-dirty app sits exactly at the idle fair-share level for its
    // connection count, and its windows are indexed under that count as
    // their class — so each count's probe scans only its own class's
    // windows.  Probing whole-table instead would be sound (a superset;
    // evaluating a non-violated app posts nothing) but quadratic in
    // steady state: every bucket's level would sweep in all windows of
    // every *other* bucket, each re-evaluation.
    probed_.clear();
    for (const auto& [count, level] : hint.idle_levels) {
      requests_.CollectViolatedApps(ResourceId::kNetworkBandwidth, static_cast<uint32_t>(count),
                                    level, &probed_);
    }
    // Apps with no connections see the empty-sum level 0.0; their windows
    // sit in class 0, which apps_by_count_ never lists.
    requests_.CollectViolatedApps(ResourceId::kNetworkBandwidth, 0, 0.0, &probed_);
    MergeCandidates(hint.dirty);
    EvaluateCandidates();
    return;
  }
  // An inexact hint leaves every app a suspect, but only an app holding a
  // network window can be owed an upcall (§4.3), so the scan visits window
  // holders alone.  A pass only takes windows and delivers its upcalls
  // later, so no app becomes a holder while it runs.
  candidates_.clear();
  for (AppId app = 1; app <= apps_.size(); ++app) {
    if (requests_.HoldsWindow(app, ResourceId::kNetworkBandwidth) ||
        requests_.HoldsWindow(app, ResourceId::kNetworkLatency)) {
      candidates_.push_back(app);
    }
  }
  EvaluateCandidates();
}

// The probes return apps in heap order, one per violated window, and often
// re-report dirty apps (their windows share the idle level's class).  Both
// lists set their apps' bits in an app-id bitset, and a sweep over its words
// up to the largest id emits the ascending, duplicate-free union, reading
// one word per 64 ids and leaving every word zero again.
void Viceroy::MergeCandidates(const std::vector<AppId>& dirty) {
  ODY_DCHECK(std::adjacent_find(dirty.begin(), dirty.end(), std::greater_equal<AppId>()) ==
                 dirty.end(),
             "hint's dirty apps not ascending and unique");
  AppId largest = dirty.empty() ? 0 : dirty.back();
  for (const AppId app : probed_) {
    largest = std::max(largest, app);
  }
  const size_t words = largest / 64 + 1;
  if (sweep_.size() < words) {
    sweep_.resize(words);
  }
  for (const AppId app : dirty) {
    sweep_[app / 64] |= uint64_t{1} << (app % 64);
  }
  for (const AppId app : probed_) {
    sweep_[app / 64] |= uint64_t{1} << (app % 64);
  }
  candidates_.clear();
  for (size_t word = 0; word < words; ++word) {
    for (uint64_t bits = sweep_[word]; bits != 0; bits &= bits - 1) {
      candidates_.push_back(word * 64 + static_cast<AppId>(std::countr_zero(bits)));
    }
    sweep_[word] = 0;
  }
}

// Evaluates candidates_ in ascending AppId order with their real levels,
// bandwidth before latency per app — the same visit order as the original
// all-apps loop, restricted to the candidate set.  The bandwidth level is
// read for every candidate; the rtt only for an app holding a latency
// window, since evaluating none posts nothing.
void Viceroy::EvaluateCandidates() {
  ArbitrationStrategy* broker = strategy_->arbitration();
  for (const AppId app : candidates_) {
    EvaluateApp(app, ResourceId::kNetworkBandwidth,
                strategy_->AvailabilityFor(app, sim_->now()), broker);
    if (requests_.HoldsWindow(app, ResourceId::kNetworkLatency)) {
      EvaluateApp(app, ResourceId::kNetworkLatency,
                  static_cast<double>(strategy_->SmoothedRttFor(app)), broker);
    }
  }
}

void Viceroy::EvaluateApp(AppId app, ResourceId resource, double level,
                          ArbitrationStrategy* broker) {
  // Availability is a physical quantity (bytes/s, microseconds, kilobytes,
  // ...); a negative level means an estimator or accounting bug upstream.
  ODY_DCHECK(level >= 0.0, "negative resource availability");
  requests_.TakeViolated(resource, app, level, &violated_);
  for (RequestTable::Entry& entry : violated_) {
    // Windows of tolerance are one-shot: taking one out of the table to
    // deliver its upcall releases any admission commitment behind it.
    if (broker != nullptr) {
      broker->OnWindowConsumed(entry.id);
    }
    const uint64_t seq =
        upcalls_.Post(app, entry.id, resource, level, std::move(entry.descriptor.handler));
    ODY_DCHECK(seq > upcalls_.last_delivered_seq(app), "posted upcall not ahead of deliveries");
  }
}

}  // namespace odyssey
