#include "src/net/link.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/contract.h"

namespace odyssey {
namespace {

// Residual bytes below this are considered fully delivered; guards against
// floating-point dust keeping a flow alive forever.
constexpr double kEpsilonBytes = 1e-6;

}  // namespace

Link::Link(Simulation* sim, double capacity_bps, Duration latency)
    : sim_(sim), capacity_bps_(capacity_bps), latency_(latency), last_update_(sim->now()) {}

void Link::SetCapacity(double capacity_bps) {
  Advance();
  capacity_bps_ = capacity_bps < 0.0 ? 0.0 : capacity_bps;
  CompleteAndReschedule();
}

void Link::SetOutage(bool outage) {
  if (outage == outage_) {
    return;
  }
  Advance();
  outage_ = outage;
  CompleteAndReschedule();
}

double Link::FairShareRate() const {
  if (flows_.empty()) {
    return effective_capacity_bps();
  }
  return effective_capacity_bps() / static_cast<double>(flows_.size());
}

std::vector<FlowId> Link::ActiveFlowIds() const {
  std::vector<FlowId> ids;
  ids.reserve(flows_.size() + zero_byte_flows_.size());
  for (const Flow& flow : flows_) {
    ids.push_back(flow.id);
  }
  for (const auto& [id, handle] : zero_byte_flows_) {
    ids.push_back(id);
  }
  return ids;
}

FlowId Link::StartFlow(double bytes, EventQueue::Callback on_complete) {
  // Byte accounting is non-negative end to end: flows are created with a
  // non-negative size and only ever drained (see Advance).
  ODY_ASSERT(bytes >= 0.0, "flow created with negative bytes");
  Advance();
  const FlowId id = next_id_++;
  if (bytes <= kEpsilonBytes) {
    // Degenerate flow: deliver on the next event-loop turn so the callback
    // never fires before StartFlow returns.  The handle is kept so that
    // CancelFlow honors its contract for zero-byte flows too.
    zero_byte_flows_[id] =
        sim_->Schedule(0, [this, id, cb = std::move(on_complete)]() mutable {
          zero_byte_flows_.erase(id);
          cb();
        });
    return id;
  }
  flows_.push_back(Flow{id, bytes, std::move(on_complete)});
  CompleteAndReschedule();
  return id;
}

void Link::CancelFlow(FlowId id) {
  const auto zit = zero_byte_flows_.find(id);
  if (zit != zero_byte_flows_.end()) {
    zit->second.Cancel();
    zero_byte_flows_.erase(zit);
    return;
  }
  Advance();
  const auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                                   [](const Flow& flow, FlowId key) { return flow.id < key; });
  if (it != flows_.end() && it->id == id) {
    flows_.erase(it);
  }
  CompleteAndReschedule();
}

void Link::Advance() {
  const Time now = sim_->now();
  if (now == last_update_ || flows_.empty()) {
    last_update_ = now;
    return;
  }
  // Virtual time only moves forward, so the drained amount is non-negative
  // and every flow's residual stays in [0, initial bytes].
  ODY_DCHECK(now >= last_update_, "link advanced backwards in time");
  const double elapsed_s = DurationToSeconds(now - last_update_);
  const double rate = effective_capacity_bps() / static_cast<double>(flows_.size());
  const double progress = rate * elapsed_s;
  ODY_DCHECK(progress >= 0.0, "negative delivery progress");
  // The running total lives in a local so the compiler need not assume the
  // residual stores alias it; the additions and their order are unchanged.
  double bytes_delivered = bytes_delivered_;
  for (Flow& flow : flows_) {
    const double delivered = progress < flow.remaining ? progress : flow.remaining;
    flow.remaining -= delivered;
    bytes_delivered += delivered;
    ODY_DCHECK(flow.remaining >= 0.0, "flow residual went negative");
  }
  bytes_delivered_ = bytes_delivered;
  last_update_ = now;
}

void Link::CompleteAndReschedule() {
  // One pass completes drained flows and takes the smallest residual among
  // the survivors.  Callbacks may start new flows re-entrantly, so they are
  // collected first, into the reused completion buffer; a nested call finds
  // it taken and uses a fresh one.
  std::vector<EventQueue::Callback> done = std::move(done_scratch_);
  double min_remaining = std::numeric_limits<double>::max();
  size_t kept = 0;
  for (Flow& flow : flows_) {
    if (flow.remaining <= kEpsilonBytes) {
      done.push_back(std::move(flow.on_complete));
    } else {
      if (flow.remaining < min_remaining) {
        min_remaining = flow.remaining;
      }
      if (&flow != &flows_[kept]) {
        flows_[kept] = std::move(flow);
      }
      ++kept;
    }
  }
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept), flows_.end());
  for (EventQueue::Callback& cb : done) {
    cb();
  }
  if (!done.empty()) {
    // Callbacks may have mutated the flow set; recompute from a clean slate.
    Advance();
    min_remaining = std::numeric_limits<double>::max();
    for (const Flow& flow : flows_) {
      if (flow.remaining < min_remaining) {
        min_remaining = flow.remaining;
      }
    }
  }

  pending_completion_.Cancel();
  // Stalled (radio shadow) or idle flows wait for a capacity change.
  const bool stalled = flows_.empty() || effective_capacity_bps() <= 0.0;
  if (!stalled) {
    const double rate = effective_capacity_bps() / static_cast<double>(flows_.size());
    const Duration eta = SecondsToDuration(min_remaining / rate);
    pending_completion_ = sim_->Schedule(eta < 1 ? 1 : eta, [this] {
      Advance();
      CompleteAndReschedule();
    });
  }
  done.clear();
  done_scratch_ = std::move(done);
}

}  // namespace odyssey
