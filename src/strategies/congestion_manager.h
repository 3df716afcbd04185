// Congestion-manager bandwidth strategy.
//
// Models the Congestion Manager's core idea (Andersen et al., "System
// Support for Bandwidth Management and Content Adaptation"): all flows from
// one client to the same server share congestion state, instead of each
// connection probing for bandwidth independently.  The strategy derives the
// server of a connection from the endpoint's service name (the prefix
// before ':', so "video:bigbuck" and "video:sintel" share the "video"
// server) and allocates hierarchically:
//
//   server  — the per-server budget is the sum of the supply model's
//             per-connection availabilities across the server's flows,
//             i.e. the congestion window the client has collectively
//             earned against that server;
//   flow    — the budget is split equally among the server's flows (the
//             CM's scheduler default), replacing the per-connection
//             independent estimates;
//   app     — an application's availability is the sum of its flows'
//             shares, in ascending connection-id order.
//
// With one flow per server the split is a no-op and the strategy is
// bit-identical to the seed CentralizedStrategy — the differential test
// pins that.  Equal-split shares never drop below the model's fair-share
// floor (each per-flow availability the budget sums is itself >= the
// floor), so the fair-share oracle stays armed.
//
// Query path: each connection maps to a dense server index (a vector by
// connection id), and each server row holds its key, its flows in
// ascending id order and a memo of its budget at one (instant, model
// generation).  A server's budget is therefore summed once per instant and
// model change, in the same flow order, however many of its flows are
// asked about: a full scan over k apps on one server costs O(flows), not
// O(k x flows).  Attach and detach look the key up and clear the server's
// memo.  Redistribution breaks the incremental idle-level bookkeeping, so
// reevaluation hints are inexact and the viceroy full-scans its window
// holders.

#ifndef SRC_STRATEGIES_CONGESTION_MANAGER_H_
#define SRC_STRATEGIES_CONGESTION_MANAGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/strategies/centralized.h"

namespace odyssey {

class CongestionManagerStrategy : public CentralizedStrategy {
 public:
  explicit CongestionManagerStrategy(Simulation* sim, const SupplyModelConfig& config = {})
      : CentralizedStrategy(sim, config) {}
  // Injected supply model (fleet-aggregated or reference); see
  // CentralizedStrategy.
  CongestionManagerStrategy(Simulation* sim, std::unique_ptr<SupplyModelInterface> model)
      : CentralizedStrategy(sim, std::move(model)) {}

  std::string name() const override { return "congestion-manager"; }

  void AttachConnection(AppId app, Endpoint* endpoint) override;
  void DetachConnection(Endpoint* endpoint) override;

  double AvailabilityFor(AppId app, Time now) const override;
  double ConnectionAvailability(ConnectionId connection, Time now) const override;
  // Redistribution invalidates the idle-level bookkeeping (an idle flow
  // sharing a server with a busy one is not at the fair-share level): drain
  // the base hint unbuilt and return the inexact one, so the viceroy
  // full-scans.
  ReevalHint TakeReevalHint(Time now) override {
    (void)now;
    DrainReevalHint();
    return {};
  }

  // The server group a connection belongs to ("" if unknown), and the
  // flows of one server in ascending id order.  Exposed for tests.
  std::string ServerOf(ConnectionId connection) const;
  std::vector<ConnectionId> FlowsOf(const std::string& server) const;

  // The server key for a service name: the prefix before ':'.
  static std::string ServerKeyOf(const std::string& service);

 private:
  static constexpr uint32_t kNoServer = UINT32_MAX;

  // A server's budget as last summed, and the (instant, model generation)
  // it holds for.
  struct Memo {
    Time at = 0;
    uint64_t generation = 0;
    double budget = 0.0;
  };

  struct Server {
    std::string key;
    std::vector<ConnectionId> flows;  // ascending
    mutable std::optional<Memo> memo;  // cleared when |flows| changes
  };

  // The server row of |connection|, or nullptr if it is not attached.
  const Server* ServerFor(ConnectionId connection) const {
    return connection < server_index_.size() && server_index_[connection] != kNoServer
               ? &servers_[server_index_[connection]]
               : nullptr;
  }
  // The sum of the model's availabilities over |server|'s flows at |now|.
  double BudgetOf(const Server& server, Time now) const;

  std::vector<uint32_t> server_index_;  // by connection id; kNoServer if unattached
  std::vector<Server> servers_;         // rows stay once made; a key keeps its index
};

}  // namespace odyssey

#endif  // SRC_STRATEGIES_CONGESTION_MANAGER_H_
