// An emulated network link with time-varying capacity shared among flows.
//
// This is the simulation-level equivalent of the paper's trace-modulation
// layer: all traffic into and out of the mobile client is delayed according
// to a linear model combining latency and bandwidth-induced delay (§6.1.2).
// Concurrently active flows share the nominal capacity equally (processor
// sharing), which provides the bandwidth contention that the concurrency
// experiments (Figures 9 and 14) exercise.
//
// Latency is applied by callers per message (see rpc::Endpoint); the link
// models only the bandwidth-induced component and exposes the current
// latency parameter for them.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace odyssey {

using FlowId = uint64_t;

class Link {
 public:
  // |capacity_bps| is the nominal bandwidth in bytes/second; |latency| the
  // one-way latency applied per message by callers.
  Link(Simulation* sim, double capacity_bps, Duration latency);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Changes the nominal capacity, rescheduling in-flight flows.  A zero
  // capacity stalls all flows until capacity is restored (radio shadow).
  void SetCapacity(double capacity_bps);
  void SetLatency(Duration latency) { latency_ = latency; }

  // Fault-injection gate: while in outage the effective capacity is zero
  // regardless of the nominal capacity, so modulator transitions during the
  // outage are honored once it lifts.  Orthogonal to SetCapacity.
  void SetOutage(bool outage);
  bool in_outage() const { return outage_; }

  // Fault-injection latency excursion, added on top of the nominal latency
  // (negative extras clamp at zero total).
  void SetExtraLatency(Duration extra) { extra_latency_ = extra; }

  double capacity_bps() const { return capacity_bps_; }
  // Capacity actually serving flows right now (zero while in outage).
  double effective_capacity_bps() const { return outage_ ? 0.0 : capacity_bps_; }
  Duration latency() const {
    const Duration total = latency_ + extra_latency_;
    return total < 0 ? 0 : total;
  }
  size_t active_flow_count() const { return flows_.size() + zero_byte_flows_.size(); }

  // Ids of every flow currently in flight, for fault injection's
  // kill-all-flows primitive.
  std::vector<FlowId> ActiveFlowIds() const;

  // Instantaneous per-flow rate if one more flow were added; used only by
  // diagnostics.
  double FairShareRate() const;

  // Starts transferring |bytes| through the shared link.  |on_complete| fires
  // when the last byte clears the link.  Zero-byte flows complete after the
  // next event-loop turn.  Returns an id usable with CancelFlow().
  FlowId StartFlow(double bytes, EventQueue::Callback on_complete);

  // Abandons an in-flight flow; its completion callback never fires.
  // Unknown ids are ignored (the flow may have completed already).
  void CancelFlow(FlowId id);

  // Total bytes delivered over the lifetime of the link.
  double bytes_delivered() const { return bytes_delivered_; }

 private:
  // The hot record a drain pass walks: 24 bytes, trivially movable.  The
  // completion callback is parked in |callbacks_| at |slot| and stays put
  // until the flow completes or is cancelled.
  struct Flow {
    FlowId id = 0;
    double remaining = 0.0;
    uint32_t slot = 0;
  };

  // Applies progress to all flows for time elapsed since |last_update_|,
  // noting whether any flow drained and the smallest surviving residual.
  void Advance();
  // Completes any flows that have drained, then schedules the next
  // completion event.
  void CompleteAndReschedule();
  // Parks |cb| in a free callback slot and returns the slot.
  uint32_t Park(EventQueue::Callback cb);

  Simulation* sim_;
  double capacity_bps_;
  Duration latency_;
  Duration extra_latency_ = 0;
  bool outage_ = false;
  // In-flight flows in ascending id order.  Ids only grow, so StartFlow
  // appends; every pass over the flows (draining, completion) visits them
  // in id order over contiguous memory.
  std::vector<Flow> flows_;
  // Whether some flow has drained to kEpsilonBytes since the last
  // completion pass: the only case in which that pass compacts |flows_|.
  bool drained_ = false;
  // The smallest residual among the flows that have not drained (the max
  // double when there are none); the next completion's eta reads it.
  double min_remaining_ = std::numeric_limits<double>::max();
  // Completion callbacks by slot, recycled through |free_slots_|.
  std::vector<EventQueue::Callback> callbacks_;
  std::vector<uint32_t> free_slots_;
  // Degenerate zero-byte flows whose completion is already on the event
  // queue; tracked so CancelFlow can still suppress the callback.
  std::map<FlowId, EventHandle> zero_byte_flows_;
  FlowId next_id_ = 1;
  Time last_update_ = 0;
  EventHandle pending_completion_;
  double bytes_delivered_ = 0.0;
  // CompleteAndReschedule's completion buffer, kept (empty) between calls.
  std::vector<EventQueue::Callback> done_scratch_;
};

}  // namespace odyssey

#endif  // SRC_NET_LINK_H_
