// The viceroy: Odyssey's type-independent, centralized resource manager.
//
// The viceroy tracks resource availability (network bandwidth through a
// pluggable BandwidthStrategy; the other Figure 3(c) resources through
// settable levels), maintains the table of registered windows of tolerance,
// and generates upcalls when availability strays outside a window.  Wardens
// are subordinate to it; applications reach it through the OdysseyClient
// facade.

#ifndef SRC_CORE_VICEROY_H_
#define SRC_CORE_VICEROY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bandwidth_strategy.h"
#include "src/core/request_table.h"
#include "src/core/resource.h"
#include "src/core/status.h"
#include "src/core/upcall.h"
#include "src/rpc/endpoint.h"
#include "src/sim/simulation.h"

namespace odyssey {

class Viceroy {
 public:
  // Observes the windows of tolerance the viceroy holds: each one Request
  // grants, and each one an ok Cancel discards (§4.2).  Installed by the
  // fuzzing oracles (src/check) so their ledger knows every window an
  // upcall can be delivered against; unset (the default) costs one branch
  // per grant or cancel.
  class WindowObserver {
   public:
    virtual ~WindowObserver() = default;
    virtual void OnWindowRegistered(AppId app, RequestId id, double lower, double upper) = 0;
    virtual void OnWindowCancelled(RequestId id) = 0;
  };

  // |strategy| decides bandwidth availability; |upcall_latency| models the
  // cost of delivering an upcall into an application.
  Viceroy(Simulation* sim, std::unique_ptr<BandwidthStrategy> strategy,
          Duration upcall_latency = 0);

  Viceroy(const Viceroy&) = delete;
  Viceroy& operator=(const Viceroy&) = delete;

  // Registers an application; the returned id scopes requests and upcalls.
  AppId RegisterApplication(std::string name);
  const std::string& ApplicationName(AppId app) const;

  // Wardens attach each server connection they open on behalf of an
  // application, so the strategy can observe and arbitrate it.
  void AttachConnection(AppId app, Endpoint* endpoint);
  void DetachConnection(Endpoint* endpoint);

  // The request system call (§4.2, Figure 3a).  If the resource is within
  // the window, registers it and returns ok with an id.  Otherwise returns
  // !ok with the current level; the caller is expected to try again with a
  // window appropriate to a new fidelity.  A granted descriptor, upcall
  // handler included, is moved into the request table, never copied.
  RequestResult Request(AppId app, ResourceDescriptor descriptor);

  // The cancel system call: discards a registration.
  Status Cancel(RequestId id);

  // Current availability of |resource| as seen by |app|.
  double CurrentLevel(AppId app, ResourceId resource) const;

  // Whether the bandwidth strategy has produced any estimate yet.
  bool HasBandwidthEstimate() const { return strategy_->HasEstimate(); }

  // Sets the level of a statically managed resource (disk cache, CPU,
  // battery, money), triggering upcalls for any violated windows.
  void SetStaticLevel(ResourceId resource, double level);

  BandwidthStrategy& strategy() { return *strategy_; }
  const BandwidthStrategy& strategy() const { return *strategy_; }
  UpcallDispatcher& upcalls() { return upcalls_; }
  RequestTable& requests() { return requests_; }
  Simulation* sim() { return sim_; }

  // Re-evaluates every window the latest change may have violated
  // (normally driven by the strategy's change notifications).  An exact
  // ReevalHint narrows the visit to its dirty apps plus the request table's
  // interval-index probes; an inexact one visits every app holding a
  // network window.  Both visit apps in ascending id order with their real
  // levels, and an app with no violated window posts nothing, so the two
  // give the same upcalls whenever the hint is exact.
  void Reevaluate();

  // Null detaches.
  void set_window_observer(WindowObserver* observer) { window_observer_ = observer; }

 private:
  // Takes |app|'s windows on |resource| that exclude |level| and posts
  // their upcalls, releasing each one's commitment with |broker| (the
  // strategy's arbitration(), read once per pass; may be null).
  void EvaluateApp(AppId app, ResourceId resource, double level, ArbitrationStrategy* broker);
  void EvaluateCandidates();
  // Sets candidates_ to the ascending union of |dirty| (ascending, unique)
  // and the probed_ apps (any order, duplicates allowed).
  void MergeCandidates(const std::vector<AppId>& dirty);

  // The request-table class for |app|'s windows: its connection count.
  uint32_t WindowClassOf(AppId app) const;

  Simulation* sim_;
  std::unique_ptr<BandwidthStrategy> strategy_;
  UpcallDispatcher upcalls_;
  RequestTable requests_;
  // Application names; app id k (ids count up from 1) is at index k - 1.
  std::vector<std::string> apps_;
  std::map<ResourceId, double> static_levels_;
  WindowObserver* window_observer_ = nullptr;
  // Candidate and violated-window scratch, reused across re-evaluations to
  // avoid reallocating in the hot notification path.
  std::vector<AppId> candidates_;
  std::vector<RequestTable::Entry> violated_;
  // MergeCandidates' scratch: the probes' apps, and the sweep's app-id
  // bitset, all zero between passes.
  std::vector<AppId> probed_;
  std::vector<uint64_t> sweep_;
};

}  // namespace odyssey

#endif  // SRC_CORE_VICEROY_H_
