#include "src/core/upcall.h"

#include <cstddef>
#include <utility>

#include "src/core/contract.h"
#include "src/trace/trace_macros.h"

namespace odyssey {

UpcallDispatcher::PendingUpcall UpcallDispatcher::AppQueue::PopFront() {
  PendingUpcall front = std::move(pending[head++]);
  if (empty()) {
    pending.clear();
    head = 0;
  } else if (head >= 32 && 2 * head >= pending.size()) {
    // A queue that never drains still frees its delivered prefix.
    pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return front;
}

UpcallDispatcher::AppQueue& UpcallDispatcher::QueueFor(AppId app) {
  if (app >= queues_.size()) {
    queues_.resize(app + 1);
  }
  return queues_[app];
}

uint64_t UpcallDispatcher::Post(AppId app, RequestId request, ResourceId resource, double level,
                                UpcallHandler handler) {
  AppQueue& q = QueueFor(app);
  const uint64_t seq = q.next_seq++;
  q.pending.push_back(
      PendingUpcall{seq, request, resource, level, sim_->now(), std::move(handler)});
  ++queued_;
  ODY_TRACE_INSTANT2(sim_->trace(), kViceroy, "upcall_post", sim_->now(), app, "seq",
                     static_cast<double>(seq), "level", level);
  ODY_TRACE_COUNTER(sim_->trace(), kViceroy, "upcall_queue_depth", sim_->now(), 0,
                    static_cast<double>(queued_));
  ScheduleDelivery(app);
  return seq;
}

void UpcallDispatcher::Block(AppId app) { QueueFor(app).blocked = true; }

void UpcallDispatcher::Unblock(AppId app) {
  AppQueue& q = QueueFor(app);
  q.blocked = false;
  ScheduleDelivery(app);
}

bool UpcallDispatcher::blocked(AppId app) const {
  return app < queues_.size() && queues_[app].blocked;
}

uint64_t UpcallDispatcher::last_delivered_seq(AppId app) const {
  return app < queues_.size() ? queues_[app].last_delivered : 0;
}

void UpcallDispatcher::ScheduleDelivery(AppId app) {
  AppQueue& q = QueueFor(app);
  if (q.blocked || q.delivery_scheduled || q.empty()) {
    return;
  }
  q.delivery_scheduled = true;
  const Time due = sim_->now() + delivery_latency_;
  if (!batches_.empty() && batches_.back().due == due) {
    // Ride the already-scheduled event for this instant.
    batches_.back().apps.push_back(app);
    return;
  }
  batches_.push_back(Batch{due, std::exchange(spare_apps_, {})});
  batches_.back().apps.push_back(app);
  sim_->Post(delivery_latency_, [this] { FireBatch(); });
}

void UpcallDispatcher::FireBatch() {
  ODY_ASSERT(!batches_.empty(), "upcall batch event with no batch");
  std::vector<AppId> apps = std::move(batches_.front().apps);
  batches_.pop_front();
  for (const AppId app : apps) {
    DeliverNext(app);
  }
  apps.clear();
  spare_apps_ = std::move(apps);
}

void UpcallDispatcher::DeliverNext(AppId app) {
  AppQueue& q = QueueFor(app);
  q.delivery_scheduled = false;
  if (q.blocked || q.empty()) {
    return;
  }
  PendingUpcall upcall = q.PopFront();
  // Exactly-once, in-order delivery (§4.3): sequence numbers are assigned
  // consecutively at Post time and the queue is FIFO, so the next delivery
  // must be exactly the successor of the last — a gap means a lost upcall,
  // a repeat means a duplicate.
  ODY_ASSERT(upcall.seq == q.last_delivered + 1, "upcall delivered out of order");
  q.last_delivered = upcall.seq;
  ++delivered_;
  ODY_ASSERT(queued_ > 0, "delivering an upcall nobody queued");
  --queued_;
  const Duration latency = sim_->now() - upcall.posted_at;
  latency_total_ += latency;
  if (latency > latency_max_) {
    latency_max_ = latency;
  }
  ODY_TRACE_INSTANT2(sim_->trace(), kViceroy, "upcall_deliver", sim_->now(), app, "seq",
                     static_cast<double>(upcall.seq), "level", upcall.level);
  ODY_TRACE_COUNTER(sim_->trace(), kViceroy, "upcall_latency_us", sim_->now(), 0,
                    static_cast<double>(latency));
  ODY_TRACE_COUNTER(sim_->trace(), kViceroy, "upcall_queue_depth", sim_->now(), 0,
                    static_cast<double>(queued_));
  if (observer_) {
    observer_(app, upcall.seq, upcall.request, upcall.resource, upcall.level, upcall.posted_at);
#ifdef ODYSSEY_FUZZ_SELFTEST
    if (selftest_duplicate_ && upcall.seq == 2) {
      observer_(app, upcall.seq, upcall.request, upcall.resource, upcall.level, upcall.posted_at);
    }
#endif
  }
  if (upcall.handler) {
    upcall.handler(upcall.request, upcall.resource, upcall.level);
  }
  // Deliver any remaining upcalls on subsequent turns, preserving order even
  // if the handler posted new ones.
  ScheduleDelivery(app);
}

}  // namespace odyssey
