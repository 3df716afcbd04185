#include "src/net/link.h"

#include <algorithm>
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
  flows_.push_back(Flow{id, bytes, Park(std::move(on_complete))});
  if (bytes < min_remaining_) {
    min_remaining_ = bytes;
  }
  CompleteAndReschedule();
  return id;
}

uint32_t Link::Park(EventQueue::Callback cb) {
  if (free_slots_.empty()) {
    callbacks_.push_back(std::move(cb));
    return static_cast<uint32_t>(callbacks_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  callbacks_[slot] = std::move(cb);
  return slot;
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
    callbacks_[it->slot] = EventQueue::Callback();  // drops the capture now
    free_slots_.push_back(it->slot);
    flows_.erase(it);
    // The cancelled flow may have held the minimum.
    min_remaining_ = std::numeric_limits<double>::max();
    for (const Flow& flow : flows_) {
      if (flow.remaining > kEpsilonBytes && flow.remaining < min_remaining_) {
        min_remaining_ = flow.remaining;
      }
    }
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
  // The running totals live in locals so the compiler need not assume the
  // residual stores alias them; the additions and their order are unchanged.
  double bytes_delivered = bytes_delivered_;
  double min_remaining = std::numeric_limits<double>::max();
  bool drained = false;
  for (Flow& flow : flows_) {
    const double delivered = progress < flow.remaining ? progress : flow.remaining;
    flow.remaining -= delivered;
    bytes_delivered += delivered;
    ODY_DCHECK(flow.remaining >= 0.0, "flow residual went negative");
    if (flow.remaining <= kEpsilonBytes) {
      drained = true;
    } else if (flow.remaining < min_remaining) {
      min_remaining = flow.remaining;
    }
  }
  bytes_delivered_ = bytes_delivered;
  min_remaining_ = min_remaining;
  drained_ = drained_ || drained;
  last_update_ = now;
}

void Link::CompleteAndReschedule() {
  // Only a pass after some flow drained has flows to complete.  Callbacks
  // may start or cancel flows re-entrantly, so the drained flows' callbacks
  // are moved out first, into the reused completion buffer, and the flow
  // list is compacted before any of them runs.  Virtual time stands still
  // meanwhile, so a nested call finds nothing drained, and the flows the
  // callbacks start or cancel keep |min_remaining_| current themselves.
  const bool completing = drained_;
  std::vector<EventQueue::Callback> done;
  if (completing) {
    drained_ = false;
    done = std::move(done_scratch_);
    size_t kept = 0;
    for (const Flow& flow : flows_) {
      if (flow.remaining <= kEpsilonBytes) {
        done.push_back(std::move(callbacks_[flow.slot]));
        free_slots_.push_back(flow.slot);
      } else {
        flows_[kept++] = flow;
      }
    }
    flows_.resize(kept);
    for (EventQueue::Callback& cb : done) {
      cb();
    }
  }

  pending_completion_.Cancel();
  // Stalled (radio shadow) or idle flows wait for a capacity change.
  const bool stalled = flows_.empty() || effective_capacity_bps() <= 0.0;
  if (!stalled) {
    const double rate = effective_capacity_bps() / static_cast<double>(flows_.size());
    const Duration eta = SecondsToDuration(min_remaining_ / rate);
    pending_completion_ = sim_->Schedule(eta < 1 ? 1 : eta, [this] {
      Advance();
      CompleteAndReschedule();
    });
  }
  if (completing) {
    done.clear();
    done_scratch_ = std::move(done);
  }
}

}  // namespace odyssey
