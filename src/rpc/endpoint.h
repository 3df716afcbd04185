// A user-level RPC endpoint over the emulated network.
//
// Models the paper's RPC mechanism (built on UDP): a conventional
// request/response protocol for small exchanges plus a sliding-window
// bulk-transfer protocol.  Every operation feeds the endpoint's observation
// log; wardens never contact servers except through an Endpoint, mirroring
// the Odyssey architecture in which wardens are entirely responsible for
// server communication.
//
// All calls are asynchronous: completion callbacks fire after the modeled
// latency, transmission and server-compute delays have elapsed in virtual
// time.
//
// Failure semantics: with a RetryPolicy installed (see set_retry_policy),
// every exchange carries a per-attempt timeout; a lost or stalled attempt
// is retried with exponential backoff plus seeded jitter up to a bounded
// attempt budget, after which the status-aware completion fires with
// kDeadlineExceeded and a FailureObservation enters the log.  Only the
// final successful attempt's own timing is logged, so retransmissions never
// inflate the estimator's round-trip or throughput samples.  Without a
// policy (the default) behavior is the original fair-weather protocol:
// infinite patience, no retries — existing timing-sensitive callers are
// unaffected.

#ifndef SRC_RPC_ENDPOINT_H_
#define SRC_RPC_ENDPOINT_H_

#include <functional>
#include <memory>
#include <string>

#include "src/core/status.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/rpc/observation_log.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace odyssey {

// Size of protocol control messages (requests, acknowledgements).  Small so
// the measured round trip is dominated by latency, matching the paper's
// 21 ms protocol RTT at both bandwidth levels.
inline constexpr double kControlMessageBytes = 64.0;

// Default bulk-transfer window.  64 KB at 120 KB/s yields ~0.55 s windows;
// because a throughput estimate is generated only at the end of a window,
// this reproduces the ~2 s Step-Down settling time the paper reports.
inline constexpr double kDefaultWindowBytes = 64.0 * 1024.0;

// Timeout, retry and backoff policy for one endpoint.  A zero |timeout|
// disables the whole mechanism (the default): calls wait forever, exactly
// as the paper's fair-weather protocol did.
struct RetryPolicy {
  // Per-attempt deadline for the network portion of an exchange; known
  // server compute is budgeted on top, so a slow server is not mistaken
  // for a dead link.  Zero disables timeouts and retries.
  Duration timeout = 0;
  // Total attempts per exchange (first try + retries), >= 1.
  int max_attempts = 4;
  // Delay before retry k (1-based) is backoff_base * multiplier^(k-1),
  // multiplicatively jittered by +/- jitter to decorrelate retry storms.
  Duration backoff_base = 100 * kMillisecond;
  double backoff_multiplier = 2.0;
  double jitter = 0.2;
  // Floor transfer rate used to size an attempt's deadline: moving |bytes|
  // earns an extra bytes / min_rate_bytes_per_sec of patience on top of
  // |timeout|, so a large window on a slow-but-alive link is not mistaken
  // for a dead one.
  double min_rate_bytes_per_sec = 16.0 * 1024.0;

  bool enabled() const { return timeout > 0; }

  // A conventional profile for fault-tolerant operation: 2 s attempts,
  // 4 attempts, 100 ms initial backoff doubling per retry.
  static RetryPolicy Default() {
    RetryPolicy policy;
    policy.timeout = 2 * kSecond;
    return policy;
  }
};

class Endpoint {
 public:
  using StatusDone = std::function<void(Status)>;

  // |name| identifies the remote service for diagnostics.  Each endpoint is
  // assigned the next ConnectionId of its simulation, so id assignment is a
  // pure function of construction order within the trial — independent of
  // any other trial running in the process.
  Endpoint(Simulation* sim, Link* link, std::string name);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  ConnectionId id() const { return id_; }
  const std::string& name() const { return name_; }
  ObservationLog& log() { return log_; }
  const ObservationLog& log() const { return log_; }
  Simulation* sim() { return sim_; }
  Link* link() { return link_; }

  double window_bytes() const { return window_bytes_; }
  void set_window_bytes(double bytes) { window_bytes_ = bytes; }

  // Installs the failure semantics.  Affects exchanges started afterwards.
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }
  const RetryPolicy& retry_policy() const { return policy_; }

  // Routes this endpoint's messages through |injector| (null detaches).
  // The injector must outlive the endpoint's traffic.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // --- Exchanges: each completes through |done| with its Status ---

  // Small request/response exchange.  |server_compute| is the (known)
  // server-side processing time, excluded from the logged round trip.
  void Call(double request_bytes, double response_bytes, Duration server_compute,
            StatusDone done);

  // Minimal exchange with control-sized messages; logs a round trip.
  void Ping(StatusDone done);

  // Transfers one window's worth of data from the server, logging a
  // throughput entry spanning request to last byte.
  void FetchWindow(double bytes, StatusDone done);

  // Full bulk fetch: a control exchange (logging a round trip, covering the
  // transfer request and any server compute), then |total_bytes| moved in
  // window-sized units, each logging a throughput entry.  Fails with the
  // first window's error; completed windows stay counted.
  void Fetch(double total_bytes, Duration server_compute, StatusDone done);

  // Pushes |total_bytes| to the server in window-sized units; each window's
  // send-to-acknowledgement time logs a throughput entry.  Symmetric to
  // Fetch under the link's shared-capacity model.
  void Send(double total_bytes, Duration server_compute, StatusDone done);

  // Data bytes of the windows that finished (FetchWindow, and the windows
  // of Fetch and Send).  A call's request and response, control messages,
  // and windows that failed or are still in flight add nothing.
  double bytes_transferred() const { return bytes_transferred_; }

  // --- Failure-path accounting (tests, diagnostics) ---

  // Retries issued over the endpoint's lifetime (attempts beyond the first).
  uint64_t retries() const { return retries_; }
  // Exchanges that exhausted their attempt budget.
  uint64_t exchanges_failed() const { return exchanges_failed_; }
  // Attempts abandoned by the per-attempt timeout.
  uint64_t timeouts() const { return timeouts_; }

 private:
  // What one exchange moves: |up_bytes| to the server, |server_compute| of
  // server time, |down_bytes| back.  |payload| is the bytes the attempt's
  // budget and trace span count.  A window logs a throughput entry for its
  // down bytes; a call logs a round trip.
  struct Exchange {
    double up_bytes = 0.0;
    double down_bytes = 0.0;
    Duration server_compute = 0;
    double payload = 0.0;
    bool window = false;
  };

  // One attempt of an exchange, shared by its steps and its timeout event
  // so that exactly one of them settles it.  A retry starts a new attempt.
  struct Attempt {
    Exchange exchange;
    int number = 1;
    Time start = 0;
    uint64_t span = 0;
    bool aborted = false;    // the timeout fired; late steps are dropped
    bool completed = false;  // the attempt finished; the timeout is a no-op
    FlowId flow = 0;         // in-flight flow, cancelled on abort (0 = none)
    // The exchange's completion: run once the attempt succeeds or the last
    // one fails, or handed on to the next attempt on a retry.
    StatusDone done;
  };
  using AttemptPtr = std::shared_ptr<Attempt>;
  // An attempt's step, run once its message clears the link.
  using Step = void (Endpoint::*)(const AttemptPtr&);

  // Attempt |number| of |exchange|: arms its timeout and sends the request up.
  void SendUp(const Exchange& exchange, int number, StatusDone done);
  // The request cleared the link; the server answers after one-way latency,
  // its compute and any injected stall.
  void ServerTurn(const AttemptPtr& attempt);
  // The server answers: sends the response down, unless the attempt aborted.
  void SendDown(const AttemptPtr& attempt);
  // The response cleared the link; it reaches the client after one-way latency.
  void ClientArrival(const AttemptPtr& attempt);
  // Logs the attempt's own span and completes the exchange.
  void Finish(const AttemptPtr& attempt);
  // The attempt's deadline: a no-op once it completed; otherwise aborts it,
  // cancelling its in-flight flow, then retries the exchange after backoff
  // or fails it and logs the failure.
  void TimeOut(const AttemptPtr& attempt);

  // Starts |bytes| through the link (or silently loses them, per the
  // injector), taking step |next| only if the attempt is still live.
  void SendMessage(double bytes, const AttemptPtr& attempt, Step next);

  // Backoff before retry |attempt| (1-based retry count), jittered.
  Duration BackoffDelay(int attempt);

  // Runs the window pipeline for |remaining| bytes, then |done|.
  void TransferWindows(double remaining, StatusDone done);
  // The completion of the exchange before them: on success it runs the
  // window pipeline for |remaining| bytes; a failure goes to |done| at once.
  StatusDone ThenWindows(double remaining, StatusDone done);

  Simulation* sim_;
  Link* link_;
  std::string name_;
  ConnectionId id_;
  ObservationLog log_;
  double window_bytes_ = kDefaultWindowBytes;
  double bytes_transferred_ = 0.0;
  RetryPolicy policy_;
  FaultInjector* injector_ = nullptr;
  uint64_t retries_ = 0;
  uint64_t exchanges_failed_ = 0;
  uint64_t timeouts_ = 0;
};

}  // namespace odyssey

#endif  // SRC_RPC_ENDPOINT_H_
