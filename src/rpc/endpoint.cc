#include "src/rpc/endpoint.h"

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
  CallAttempt(request_bytes, response_bytes, server_compute, 1, std::move(done));
}

void Endpoint::Ping(StatusDone done) {
  Call(kControlMessageBytes, kControlMessageBytes, 0, std::move(done));
}

void Endpoint::FetchWindow(double bytes, StatusDone done) {
  WindowAttempt(bytes, 1, std::move(done));
}

void Endpoint::Fetch(double total_bytes, Duration server_compute, StatusDone done) {
  // The transfer request is a small exchange: it logs a round trip and
  // absorbs the server's compute time before data begins to flow.
  Call(kControlMessageBytes, kControlMessageBytes, server_compute,
       [this, total_bytes, done = std::move(done)](Status status) mutable {
         if (!status.ok()) {
           if (done) {
             done(std::move(status));
           }
           return;
         }
         TransferWindows(total_bytes, std::move(done));
       });
}

void Endpoint::Send(double total_bytes, Duration server_compute, StatusDone done) {
  // Under the shared-capacity link model an upstream window is timed the
  // same way as a downstream one: control message one way, data the other.
  Call(kControlMessageBytes, kControlMessageBytes, server_compute,
       [this, total_bytes, done = std::move(done)](Status status) mutable {
         if (!status.ok()) {
           if (done) {
             done(std::move(status));
           }
           return;
         }
         TransferWindows(total_bytes, std::move(done));
       });
}

void Endpoint::TransferWindows(double remaining, StatusDone done) {
  if (remaining <= 0.0) {
    if (done) {
      done(OkStatus());
    }
    return;
  }
  const double this_window = remaining < window_bytes_ ? remaining : window_bytes_;
  FetchWindow(this_window,
              [this, remaining, this_window, done = std::move(done)](Status status) mutable {
                if (!status.ok()) {
                  if (done) {
                    done(std::move(status));
                  }
                  return;
                }
                TransferWindows(remaining - this_window, std::move(done));
              });
}

void Endpoint::CallAttempt(double request_bytes, double response_bytes, Duration server_compute,
                           int attempt, StatusDone done) {
  const Time start = sim_->now();
  auto state = std::make_shared<AttemptState>();
  state->done = std::move(done);
  const uint64_t span = ODY_TRACE_SPAN_ID(sim_->trace());
  ODY_TRACE_BEGIN2(sim_->trace(), kRpc, "rpc_call", sim_->now(), span, "bytes",
                   request_bytes + response_bytes, "attempt", attempt);

  if (policy_.enabled()) {
    sim_->Post(AttemptBudget(policy_, request_bytes + response_bytes, server_compute),
               [this, request_bytes, response_bytes, server_compute, attempt, span, state] {
                 if (!TimeOut(state.get())) {
                   return;
                 }
                 ODY_TRACE_END(sim_->trace(), kRpc, "rpc_call", sim_->now(), span);
                 ODY_TRACE_INSTANT1(sim_->trace(), kRpc, "rpc_timeout", sim_->now(), id_,
                                    "attempt", attempt);
                 RetryOrFail(attempt,
                             [this, request_bytes, response_bytes, server_compute,
                              state](int next) {
                               CallAttempt(request_bytes, response_bytes, server_compute, next,
                                           std::move(state->done));
                             },
                             state.get());
               });
  }

  // Request transmission, then one-way latency to the server.
  SendMessage(request_bytes, state, [this, start, response_bytes, server_compute, span, state] {
    // A stalled server adds compute the client did not budget for, so a
    // stall window is visible to the retry machinery as a slow exchange.
    const Duration stall =
        injector_ != nullptr ? injector_->ServerStallExtra(sim_->now() + link_->latency()) : 0;
    sim_->Schedule(
        link_->latency() + server_compute + stall,
        [this, start, response_bytes, server_compute, span, state] {
          if (state->aborted) {
            return;
          }
          // Response transmission, then one-way latency back to the client.
          SendMessage(response_bytes, state, [this, start, server_compute, span, state] {
            sim_->Schedule(link_->latency(), [this, start, server_compute, span, state] {
              if (state->aborted) {
                return;
              }
              state->completed = true;
              // Only this attempt's own span is logged, so retransmissions
              // never inflate the estimator's round-trip samples.
              const Duration rtt = (sim_->now() - start) - server_compute;
              log_.RecordRoundTrip(sim_->now(), rtt < 0 ? 0 : rtt);
              ODY_TRACE_END1(sim_->trace(), kRpc, "rpc_call", sim_->now(), span, "rtt_us",
                             static_cast<double>(rtt < 0 ? 0 : rtt));
              if (state->done) {
                state->done(OkStatus());
              }
            });
          });
        });
  });
}

void Endpoint::WindowAttempt(double bytes, int attempt, StatusDone done) {
  const Time start = sim_->now();
  auto state = std::make_shared<AttemptState>();
  state->done = std::move(done);
  const uint64_t span = ODY_TRACE_SPAN_ID(sim_->trace());
  ODY_TRACE_BEGIN2(sim_->trace(), kRpc, "rpc_window", sim_->now(), span, "bytes", bytes,
                   "attempt", attempt);

  if (policy_.enabled()) {
    sim_->Post(AttemptBudget(policy_, bytes, 0), [this, bytes, attempt, span, state] {
      if (!TimeOut(state.get())) {
        return;
      }
      ODY_TRACE_END(sim_->trace(), kRpc, "rpc_window", sim_->now(), span);
      ODY_TRACE_INSTANT1(sim_->trace(), kRpc, "rpc_timeout", sim_->now(), id_, "attempt",
                         attempt);
      RetryOrFail(
          attempt,
          [this, bytes, state](int next) { WindowAttempt(bytes, next, std::move(state->done)); },
          state.get());
    });
  }

  // Window request upstream...
  SendMessage(kControlMessageBytes, state, [this, start, bytes, span, state] {
    // A stalled server delays its turn-around on the window request.
    const Duration stall =
        injector_ != nullptr ? injector_->ServerStallExtra(sim_->now() + link_->latency()) : 0;
    sim_->Schedule(link_->latency() + stall, [this, start, bytes, span, state] {
      if (state->aborted) {
        return;
      }
      // ...then the window's data downstream.
      SendMessage(bytes, state, [this, start, bytes, span, state] {
        sim_->Schedule(link_->latency(), [this, start, bytes, span, state] {
          if (state->aborted) {
            return;
          }
          state->completed = true;
          ODY_DCHECK(bytes >= 0.0, "window completed with negative bytes");
          bytes_transferred_ += bytes;
          // The logged span covers only the successful attempt.
          log_.RecordThroughput(sim_->now(), bytes, sim_->now() - start);
          ODY_TRACE_END1(sim_->trace(), kRpc, "rpc_window", sim_->now(), span, "bytes", bytes);
          if (state->done) {
            state->done(OkStatus());
          }
        });
      });
    });
  });
}

void Endpoint::SendMessage(double bytes, const AttemptPtr& state, std::function<void()> next) {
  if (injector_ != nullptr && injector_->ShouldDropMessage()) {
    // Lost in transit: nothing progresses until the attempt's timeout
    // settles it (or forever, under the fair-weather protocol).
    return;
  }
  state->flow = link_->StartFlow(bytes, [state, next = std::move(next)] {
    state->flow = 0;
    if (state->aborted) {
      return;
    }
    next();
  });
}

bool Endpoint::TimeOut(AttemptState* state) {
  if (state->completed) {
    return false;
  }
  state->aborted = true;
  ++timeouts_;
  if (state->flow != 0) {
    link_->CancelFlow(state->flow);
    state->flow = 0;
  }
  return true;
}

void Endpoint::RetryOrFail(int attempt, std::function<void(int)> retry, AttemptState* state) {
  if (attempt < policy_.max_attempts) {
    ++retries_;
    const Duration backoff = BackoffDelay(attempt);
    ODY_TRACE_INSTANT2(sim_->trace(), kRpc, "rpc_retry", sim_->now(), id_, "attempt",
                       attempt, "backoff_us", static_cast<double>(backoff));
    sim_->Schedule(backoff, [retry = std::move(retry), attempt] { retry(attempt + 1); });
    return;
  }
  ++exchanges_failed_;
  ODY_TRACE_INSTANT1(sim_->trace(), kRpc, "rpc_failed", sim_->now(), id_, "attempts", attempt);
  log_.RecordFailure(sim_->now(), attempt);
  if (state->done) {
    state->done(Status(StatusCode::kDeadlineExceeded,
                       name_ + ": exchange exhausted " + std::to_string(attempt) + " attempts"));
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
