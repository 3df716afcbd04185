#include "src/rpc/endpoint.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/contract.h"
#include "src/trace/trace_macros.h"

namespace odyssey {
namespace {

// Patience granted to an attempt that moves |bytes| of payload: the policy's
// base timeout plus transfer time at the policy's floor rate.
Duration AttemptBudget(const RetryPolicy& policy, double bytes, Duration server_compute) {
  ODY_DCHECK(bytes >= 0.0, "attempt with negative payload bytes");
  ODY_DCHECK(server_compute >= 0, "attempt with negative server compute");
  Duration allowance = 0;
  if (bytes > 0.0 && policy.min_rate_bytes_per_sec > 0.0) {
    allowance = SecondsToDuration(bytes / policy.min_rate_bytes_per_sec);
  }
  // Deadline accounting must stay non-negative: a negative budget would arm
  // a timeout in the simulation's past.
  const Duration budget = policy.timeout + server_compute + allowance;
  ODY_ASSERT(budget >= 0, "attempt budget went negative");
  return budget;
}

}  // namespace

Endpoint::Endpoint(Simulation* sim, Link* link, std::string name)
    : sim_(sim), link_(link), name_(std::move(name)), id_(sim->NextConnectionId()), log_(id_) {}

void Endpoint::Call(double request_bytes, double response_bytes, Duration server_compute,
                    StatusDone done) {
  const double payload = request_bytes + response_bytes;  // the budget counts both messages
  SendUp({request_bytes, response_bytes, server_compute, payload, false}, 1, std::move(done));
}

void Endpoint::Ping(StatusDone done) {
  Call(kControlMessageBytes, kControlMessageBytes, 0, std::move(done));
}

void Endpoint::FetchWindow(double bytes, StatusDone done) {
  // A window request upstream, then the window's data downstream.
  SendUp({kControlMessageBytes, bytes, 0, bytes, true}, 1, std::move(done));
}

void Endpoint::Fetch(double total_bytes, Duration server_compute, StatusDone done) {
  // The transfer request is a small exchange: it logs a round trip and
  // absorbs the server's compute time before data begins to flow.
  Call(kControlMessageBytes, kControlMessageBytes, server_compute,
       ThenWindows(total_bytes, std::move(done)));
}

void Endpoint::Send(double total_bytes, Duration server_compute, StatusDone done) {
  // Under the shared-capacity link model an upstream window is timed the
  // same way as a downstream one: control message one way, data the other.
  Fetch(total_bytes, server_compute, std::move(done));
}

Endpoint::StatusDone Endpoint::ThenWindows(double remaining, StatusDone done) {
  return [this, remaining, done = std::move(done)](Status status) mutable {
    if (!status.ok()) {
      if (done) {
        done(std::move(status));
      }
      return;
    }
    TransferWindows(remaining, std::move(done));
  };
}

void Endpoint::TransferWindows(double remaining, StatusDone done) {
  if (remaining <= 0.0) {
    if (done) {
      done(OkStatus());
    }
    return;
  }
  const double this_window = remaining < window_bytes_ ? remaining : window_bytes_;
  FetchWindow(this_window, ThenWindows(remaining - this_window, std::move(done)));
}

void Endpoint::SendUp(const Exchange& exchange, int number, StatusDone done) {
  auto attempt = std::make_shared<Attempt>();
  attempt->exchange = exchange;
  attempt->number = number;
  attempt->start = sim_->now();
  attempt->done = std::move(done);
  attempt->span = ODY_TRACE_SPAN_ID(sim_->trace());
  if (exchange.window) {
    ODY_TRACE_BEGIN2(sim_->trace(), kRpc, "rpc_window", sim_->now(), attempt->span, "bytes",
                     exchange.payload, "attempt", number);
  } else {
    ODY_TRACE_BEGIN2(sim_->trace(), kRpc, "rpc_call", sim_->now(), attempt->span, "bytes",
                     exchange.payload, "attempt", number);
  }
  if (policy_.enabled()) {
    sim_->Post(AttemptBudget(policy_, exchange.payload, exchange.server_compute),
               [this, attempt] { TimeOut(attempt); });
  }
  SendMessage(exchange.up_bytes, attempt, &Endpoint::ServerTurn);
}

void Endpoint::ServerTurn(const AttemptPtr& attempt) {
  // A stalled server adds compute the client did not budget for, so a
  // stall window is visible to the retry machinery as a slow exchange.
  const Duration stall =
      injector_ != nullptr ? injector_->ServerStallExtra(sim_->now() + link_->latency()) : 0;
  sim_->Schedule(link_->latency() + attempt->exchange.server_compute + stall,
                 [this, attempt] { SendDown(attempt); });
}

void Endpoint::SendDown(const AttemptPtr& attempt) {
  if (attempt->aborted) {
    return;
  }
  SendMessage(attempt->exchange.down_bytes, attempt, &Endpoint::ClientArrival);
}

void Endpoint::ClientArrival(const AttemptPtr& attempt) {
  sim_->Schedule(link_->latency(), [this, attempt] { Finish(attempt); });
}

void Endpoint::Finish(const AttemptPtr& attempt) {
  if (attempt->aborted) {
    return;
  }
  attempt->completed = true;
  // Only this attempt's own span is logged, so retransmissions never
  // inflate the estimator's round-trip or throughput samples.
  const Exchange& exchange = attempt->exchange;
  const Duration elapsed = sim_->now() - attempt->start;
  if (exchange.window) {
    ODY_DCHECK(exchange.down_bytes >= 0.0, "window completed with negative bytes");
    bytes_transferred_ += exchange.down_bytes;
    log_.RecordThroughput(sim_->now(), exchange.down_bytes, elapsed);
    ODY_TRACE_END1(sim_->trace(), kRpc, "rpc_window", sim_->now(), attempt->span, "bytes",
                   exchange.down_bytes);
  } else {
    const Duration rtt = std::max<Duration>(elapsed - exchange.server_compute, 0);
    log_.RecordRoundTrip(sim_->now(), rtt);
    ODY_TRACE_END1(sim_->trace(), kRpc, "rpc_call", sim_->now(), attempt->span, "rtt_us",
                   static_cast<double>(rtt));
  }
  if (attempt->done) {
    attempt->done(OkStatus());
  }
}

void Endpoint::SendMessage(double bytes, const AttemptPtr& attempt, Step next) {
  if (injector_ != nullptr && injector_->ShouldDropMessage()) {
    // Lost in transit: nothing progresses until the attempt's timeout
    // settles it (or forever, under the fair-weather protocol).
    return;
  }
  attempt->flow = link_->StartFlow(bytes, [this, attempt, next] {
    attempt->flow = 0;
    if (!attempt->aborted) {
      (this->*next)(attempt);
    }
  });
}

void Endpoint::TimeOut(const AttemptPtr& attempt) {
  if (attempt->completed) {
    return;
  }
  attempt->aborted = true;
  ++timeouts_;
  if (attempt->flow != 0) {
    link_->CancelFlow(attempt->flow);
    attempt->flow = 0;
  }
  const int number = attempt->number;
  if (attempt->exchange.window) {
    ODY_TRACE_END(sim_->trace(), kRpc, "rpc_window", sim_->now(), attempt->span);
  } else {
    ODY_TRACE_END(sim_->trace(), kRpc, "rpc_call", sim_->now(), attempt->span);
  }
  ODY_TRACE_INSTANT1(sim_->trace(), kRpc, "rpc_timeout", sim_->now(), id_, "attempt", number);
  if (number < policy_.max_attempts) {
    ++retries_;
    const Duration backoff = BackoffDelay(number);
    ODY_TRACE_INSTANT2(sim_->trace(), kRpc, "rpc_retry", sim_->now(), id_, "attempt", number,
                       "backoff_us", static_cast<double>(backoff));
    sim_->Schedule(backoff, [this, attempt] {
      SendUp(attempt->exchange, attempt->number + 1, std::move(attempt->done));
    });
    return;
  }
  ++exchanges_failed_;
  ODY_TRACE_INSTANT1(sim_->trace(), kRpc, "rpc_failed", sim_->now(), id_, "attempts", number);
  log_.RecordFailure(sim_->now(), number);
  if (attempt->done) {
    attempt->done(Status(StatusCode::kDeadlineExceeded,
                         name_ + ": exchange exhausted " + std::to_string(number) + " attempts"));
  }
}

Duration Endpoint::BackoffDelay(int attempt) {
  double delay = static_cast<double>(policy_.backoff_base);
  for (int i = 1; i < attempt; ++i) {
    delay *= policy_.backoff_multiplier;
  }
  if (policy_.jitter > 0.0) {
    // Seeded jitter from the simulation's stream keeps trials reproducible
    // while decorrelating concurrent endpoints' retry schedules.
    delay *= sim_->rng().Uniform(1.0 - policy_.jitter, 1.0 + policy_.jitter);
  }
  return delay < 1.0 ? 1 : static_cast<Duration>(delay);
}

}  // namespace odyssey
