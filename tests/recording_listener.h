// A LogListener that keeps every observation it is handed, for tests that
// inspect what an endpoint's exchanges logged.  Observation logs keep no
// history themselves; they only notify their listeners.

#ifndef TESTS_RECORDING_LISTENER_H_
#define TESTS_RECORDING_LISTENER_H_

#include <vector>

#include "src/rpc/observation_log.h"

namespace odyssey {

class RecordingListener : public LogListener {
 public:
  RecordingListener() = default;
  // Subscribes to |log| until destroyed; declare it after the endpoint
  // that owns |log|.
  explicit RecordingListener(ObservationLog* log) : log_(log) { log_->AddListener(this); }
  ~RecordingListener() override {
    if (log_ != nullptr) {
      log_->RemoveListener(this);
    }
  }

  RecordingListener(const RecordingListener&) = delete;
  RecordingListener& operator=(const RecordingListener&) = delete;

  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override {
    last_connection = connection;
    round_trips.push_back(obs);
  }
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override {
    last_connection = connection;
    throughputs.push_back(obs);
  }
  void OnFailure(ConnectionId connection, const FailureObservation& obs) override {
    last_connection = connection;
    failures.push_back(obs);
  }

  ConnectionId last_connection = 0;
  std::vector<RoundTripObservation> round_trips;
  std::vector<ThroughputObservation> throughputs;
  std::vector<FailureObservation> failures;

 private:
  ObservationLog* log_ = nullptr;
};

}  // namespace odyssey

#endif  // TESTS_RECORDING_LISTENER_H_
