// Per-endpoint observation logs for passive network monitoring (§6.2.1).
//
// The paper's user-level RPC mechanism logs two kinds of entries: *round
// trip* entries recorded for small exchanges (request/response time less
// server computation) and *throughput* entries arising from windowed bulk
// transfers.  Each distinct endpoint has its own log, and the viceroy
// subscribes to every log to drive estimation.

#ifndef SRC_RPC_OBSERVATION_LOG_H_
#define SRC_RPC_OBSERVATION_LOG_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace odyssey {

// Identifies a client-server connection (an rpc::Endpoint).
using ConnectionId = uint64_t;

// A small request/response exchange: |rtt| excludes server compute time.
struct RoundTripObservation {
  Time at = 0;
  Duration rtt = 0;
};

// One window's worth of bulk data: |elapsed| spans window request to last
// byte received (or data sent to acknowledgement received).
struct ThroughputObservation {
  Time at = 0;
  double window_bytes = 0.0;
  Duration elapsed = 0;
};

// A transport failure: an exchange exhausted its timeout and bounded
// retries.  Passive monitoring cannot see a dead link through samples that
// never complete; failures are the only downward evidence an outage
// produces, so strategies treat them as disconnection signals.
struct FailureObservation {
  Time at = 0;
  // Attempts consumed before giving up (>= 1).
  int attempts = 0;
};

// Receives observations as they are logged.  Implemented by the viceroy's
// bandwidth strategies.
class LogListener {
 public:
  virtual ~LogListener() = default;
  virtual void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) = 0;
  virtual void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) = 0;
  // Default no-op: only disconnection-aware strategies care.
  virtual void OnFailure(ConnectionId connection, const FailureObservation& obs) {
    (void)connection;
    (void)obs;
  }
};

class ObservationLog {
 public:
  explicit ObservationLog(ConnectionId connection) : connection_(connection) {}

  ConnectionId connection() const { return connection_; }

  void AddListener(LogListener* listener) { listeners_.push_back(listener); }
  void RemoveListener(LogListener* listener) {
    std::erase(listeners_, listener);
  }

  // Each entry goes to the listeners as it is recorded; the log keeps
  // none, so its memory does not grow with the run.
  void RecordRoundTrip(Time at, Duration rtt) {
    const RoundTripObservation obs{at, rtt};
    for (LogListener* listener : listeners_) {
      listener->OnRoundTrip(connection_, obs);
    }
  }

  void RecordThroughput(Time at, double window_bytes, Duration elapsed) {
    const ThroughputObservation obs{at, window_bytes, elapsed};
    for (LogListener* listener : listeners_) {
      listener->OnThroughput(connection_, obs);
    }
  }

  void RecordFailure(Time at, int attempts) {
    const FailureObservation obs{at, attempts};
    for (LogListener* listener : listeners_) {
      listener->OnFailure(connection_, obs);
    }
  }

 private:
  ConnectionId connection_;
  std::vector<LogListener*> listeners_;
};

}  // namespace odyssey

#endif  // SRC_RPC_OBSERVATION_LOG_H_
