// Upcall delivery with exactly-once, in-order semantics (§4.3).
//
// Upcalls resemble Unix signals but are delivered exactly once and in order
// to each receiver, carry parameters, and can be blocked.  The dispatcher
// keeps a FIFO queue per application; deliveries are scheduled through the
// simulation so handlers always run from the event loop, never re-entrantly
// from the code that noticed the resource change.

#ifndef SRC_CORE_UPCALL_H_
#define SRC_CORE_UPCALL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/core/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace odyssey {

class UpcallDispatcher {
 public:
  // Observes every delivery, after the bookkeeping but before the handler
  // runs: (app, seq, request, resource, level, posted_at).  Installed by the
  // fuzzing oracles (src/check) to audit exactly-once/in-order semantics
  // without aborting; unset (the default) costs one branch per delivery.
  using DeliveryObserver =
      std::function<void(AppId, uint64_t, RequestId, ResourceId, double, Time)>;

  // |delivery_latency| models the cost of crossing into the application;
  // zero still defers delivery to a subsequent event-loop turn.
  explicit UpcallDispatcher(Simulation* sim, Duration delivery_latency = 0)
      : sim_(sim), delivery_latency_(delivery_latency) {}

  UpcallDispatcher(const UpcallDispatcher&) = delete;
  UpcallDispatcher& operator=(const UpcallDispatcher&) = delete;

  // Enqueues an upcall for |app|.  Returns the per-app sequence number.
  uint64_t Post(AppId app, RequestId request, ResourceId resource, double level,
                UpcallHandler handler);

  // Blocks delivery to |app|; posted upcalls accumulate in order.
  void Block(AppId app);
  // Unblocks and drains any queued upcalls, still in order.
  void Unblock(AppId app);
  bool blocked(AppId app) const;

  // Total upcalls delivered (for tests and diagnostics).
  uint64_t delivered_count() const { return delivered_; }
  // Last sequence number delivered to |app| (0 if none).
  uint64_t last_delivered_seq(AppId app) const;

  // Upcall latency: sim time from Post() to the handler actually running.
  // This is the agility metric the paper cares about — how quickly a supply
  // change reaches application code — so it is measured at delivery, not
  // inferred from delivery_latency_ (blocking and queueing add real delay).
  Duration latency_total() const { return latency_total_; }
  Duration latency_max() const { return latency_max_; }
  double latency_mean_us() const {
    return delivered_ == 0 ? 0.0
                           : static_cast<double>(latency_total_) / static_cast<double>(delivered_);
  }

  // Upcalls posted but not yet delivered, across all apps.
  size_t queued_count() const { return queued_; }

  // Installs (or clears, with an empty function) the delivery observer.
  void set_delivery_observer(DeliveryObserver observer) { observer_ = std::move(observer); }

#ifdef ODYSSEY_FUZZ_SELFTEST
  // Intentionally seeded defect for the fuzzer's self-test: every app's
  // second upcall is reported to the observer twice, as if it had been
  // delivered in duplicate.  The upcall-duplicate oracle must catch it.
  // Compiled only under -DODYSSEY_FUZZ_SELFTEST; release builds carry no
  // mutation code.
  void set_selftest_duplicate(bool enabled) { selftest_duplicate_ = enabled; }
#endif

 private:
  struct PendingUpcall {
    uint64_t seq;
    RequestId request;
    ResourceId resource;
    double level;
    Time posted_at;
    UpcallHandler handler;
  };

  // Per-app FIFO.  Pending upcalls are pending[head..]; the storage is
  // reused once the queue drains (and compacted if it never does).  Unlike
  // a deque, an app that never posts owns no allocation, and the vector of
  // queues grows by moving them rather than copying.
  struct AppQueue {
    std::vector<PendingUpcall> pending;
    size_t head = 0;
    uint64_t next_seq = 1;
    uint64_t last_delivered = 0;
    bool blocked = false;
    bool delivery_scheduled = false;

    bool empty() const { return head == pending.size(); }
    PendingUpcall PopFront();
  };

  // Deliveries due at the same instant ride one simulation event.  A supply
  // transition that violates N windows posts N upcalls with a common due
  // time; without batching that is N heap pushes and N pops per transition,
  // which dominates the event loop at 100k apps.  Dues are non-decreasing
  // (fixed latency, monotone clock), so a deque of batches stays sorted and
  // joining the newest batch is an O(1) back() check.  Apps within a batch
  // deliver in the order their deliveries were scheduled — exactly the
  // order separate same-time events would have fired in.
  struct Batch {
    Time due;
    std::vector<AppId> apps;
  };

  // The queue for |app|, grown into existence.
  AppQueue& QueueFor(AppId app);
  void ScheduleDelivery(AppId app);
  void FireBatch();
  void DeliverNext(AppId app);

  Simulation* sim_;
  Duration delivery_latency_;
  DeliveryObserver observer_;
  std::vector<AppQueue> queues_;  // indexed by app id
  std::deque<Batch> batches_;
  // A fired batch leaves its emptied app list here for the next new batch,
  // so batches that follow one another allocate nothing.  Only one list is
  // kept: a pool of them would hold an app list per overlapping batch for
  // the rest of the run.
  std::vector<AppId> spare_apps_;
  uint64_t delivered_ = 0;
  size_t queued_ = 0;
  Duration latency_total_ = 0;
  Duration latency_max_ = 0;
#ifdef ODYSSEY_FUZZ_SELFTEST
  bool selftest_duplicate_ = false;
#endif
};

}  // namespace odyssey

#endif  // SRC_CORE_UPCALL_H_
