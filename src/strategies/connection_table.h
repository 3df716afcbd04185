// The connections a bandwidth strategy accounts for, by id and by owner —
// like the Congestion Manager's flow table (Andersen et al.), one table of a
// client's connections queried by owner.  Ids count from 1, so rows are
// dense by id.  Each app's list and the attached list are ascending, as a
// walk over a connection-keyed std::map visits them, so per-app sums add
// the same terms in the same order as that walk.  The attached list is
// rebuilt on its first read after a change, so detaching n connections
// costs O(n).  |listener| is subscribed to each attached endpoint's log.

#ifndef SRC_STRATEGIES_CONNECTION_TABLE_H_
#define SRC_STRATEGIES_CONNECTION_TABLE_H_

#include <algorithm>
#include <span>
#include <vector>

#include "src/core/contract.h"
#include "src/core/resource.h"
#include "src/rpc/endpoint.h"

namespace odyssey {

class ConnectionTable {
 public:
  explicit ConnectionTable(LogListener* listener) : listener_(listener) {}
  ~ConnectionTable() {
    for (const ConnectionId connection : attached()) {
      rows_[connection].endpoint->log().RemoveListener(listener_);
    }
  }
  ConnectionTable(const ConnectionTable&) = delete;
  ConnectionTable& operator=(const ConnectionTable&) = delete;

  // Records |endpoint| as |app|'s; the connection must not be attached.
  void Attach(AppId app, Endpoint* endpoint) {
    const ConnectionId id = endpoint->id();
    ODY_ASSERT(!IsAttached(id), "connection attached twice");
    rows_.resize(std::max(rows_.size(), id + 1));
    rows_[id] = {app, endpoint};
    by_app_.resize(std::max(by_app_.size(), app + 1));
    std::vector<ConnectionId>& conns = by_app_[app];
    conns.insert(std::lower_bound(conns.begin(), conns.end(), id), id);
    attached_valid_ = false;
    endpoint->log().AddListener(listener_);
  }
  // Forgets |endpoint|'s connection; returns the app that owned it, or 0
  // if it was not attached.
  AppId Detach(Endpoint* endpoint) {
    const ConnectionId id = endpoint->id();
    endpoint->log().RemoveListener(listener_);
    if (!IsAttached(id)) {
      return 0;
    }
    const AppId app = rows_[id].owner;
    std::erase(by_app_[app], id);
    attached_valid_ = false;
    rows_[id] = {};
    return app;
  }

  bool IsAttached(ConnectionId connection) const {
    return connection < rows_.size() && rows_[connection].endpoint != nullptr;
  }
  // The app |connection| is attached to, or 0.
  AppId OwnerOf(ConnectionId connection) const {
    return connection < rows_.size() ? rows_[connection].owner : 0;
  }
  // |app|'s attached connections, ascending (empty if none).
  std::span<const ConnectionId> ConnectionsOf(AppId app) const {
    return app < by_app_.size() ? by_app_[app] : std::span<const ConnectionId>();
  }
  // Every attached connection, ascending.
  const std::vector<ConnectionId>& attached() const {
    if (!attached_valid_) {
      attached_.clear();
      for (ConnectionId connection = 0; connection < rows_.size(); ++connection) {
        if (rows_[connection].endpoint != nullptr) {
          attached_.push_back(connection);
        }
      }
      attached_valid_ = true;
    }
    return attached_;
  }

 private:
  struct Row {
    AppId owner = 0;
    Endpoint* endpoint = nullptr;  // null while unattached
  };

  LogListener* listener_;
  std::vector<Row> rows_;                          // by connection id
  std::vector<std::vector<ConnectionId>> by_app_;  // by app id
  mutable std::vector<ConnectionId> attached_;  // valid while |attached_valid_|
  mutable bool attached_valid_ = true;
};

}  // namespace odyssey

#endif  // SRC_STRATEGIES_CONNECTION_TABLE_H_
