// Recent consumption-rate accounting.
//
// The viceroy's per-connection availability estimate has a "competed-for
// part proportional to recent use" (§6.2.1).  A UsageMeter turns byte
// deliveries into a bytes/second rate over a sliding window of width tau.
// A delivery may be recorded as an interval (the span of the transfer that
// carried it); its bytes then count toward the window pro rata, so steady
// consumption of c bytes/second reads back as exactly c no matter when the
// rate is sampled.  Phase bias here would leak straight into the supply
// estimate, which the availability formula cannot afford.
//
// Storage is a contiguous ring buffer rather than a deque: with 100k+
// meters alive at once (one per connection), the deque's chunked heap
// blocks cost an indirection per event and scatter the working set; a ring
// keeps each meter's window in one cache-resident run and makes the empty
// (idle) case a pointer-free size check.  Its capacity is a power of two
// (8, then doubling), so indexing is a mask rather than a 64-bit modulo.
//
// Each event also stores its whole-window contribution: the pro-rata term
// RateAt would compute for it when the event lies wholly inside the window,
// evaluated once at Record with the very same expression.  In steady state
// nearly every event is wholly inside, so RateAt costs one add per event;
// only an event straddling the window's left edge (or ending after |at|)
// takes the pro-rata path.  The sum's terms and order are unchanged, so the
// rate is bit-identical to computing every term pro rata.

#ifndef SRC_ESTIMATOR_USAGE_METER_H_
#define SRC_ESTIMATOR_USAGE_METER_H_

#include <cstddef>
#include <vector>

#include "src/core/contract.h"
#include "src/sim/time.h"

namespace odyssey {

class UsageMeter {
 public:
  // |tau| is the sliding-window width; use older than tau is forgotten.
  explicit UsageMeter(Duration tau = 2 * kSecond) : tau_(tau) {}

  // Records |bytes| delivered over (start, end].  End times across calls
  // must be non-decreasing.  A zero-length interval is a point delivery.
  void Record(Time start, Time end, double bytes) {
    // Prune drops expired events from the head only, which is exact only
    // under this order.
    ODY_DCHECK(end >= last_event(), "usage recorded out of end-time order");
    if (end < start) {
      start = end;
    }
    const double whole =
        start == end ? bytes
                     : bytes * static_cast<double>(end - start) / static_cast<double>(end - start);
    PushBack(Event{start, end, bytes, whole});
  }

  // Point-delivery convenience.
  void Record(Time at, double bytes) { Record(at, at, bytes); }

  // Consumption rate in bytes/second over the window (at - tau, at].
  double RateAt(Time at) const {
    Prune(at);
    const Time window_start = at - tau_;
    double bytes_in_window = 0.0;
    for (size_t i = 0; i < count_; ++i) {
      const Event& event = ring_[Index(i)];
      if (event.start > window_start && event.end <= at) {
        // Wholly inside the window (a point delivery counts fully).
        bytes_in_window += event.whole;
        continue;
      }
      if (event.start == event.end) {
        continue;  // a point delivery outside the window
      }
      const Time lo = event.start > window_start ? event.start : window_start;
      const Time hi = event.end < at ? event.end : at;
      if (hi > lo) {
        bytes_in_window += event.bytes * static_cast<double>(hi - lo) /
                           static_cast<double>(event.end - event.start);
      }
    }
    return bytes_in_window / DurationToSeconds(tau_);
  }

  // Whether recorded usage within the window is significant (the
  // connection is "active" for fair-share counting).
  bool ActiveAt(Time at, double threshold_bps = 16.0) const { return RateAt(at) > threshold_bps; }

  Time last_event() const { return count_ == 0 ? 0 : ring_[Index(count_ - 1)].end; }

  // No recorded events survive (everything pruned or never recorded).  The
  // rate is then exactly 0.0 at this and every later instant, which is what
  // lets the supply model drop the meter from its live set.
  bool empty() const { return count_ == 0; }

  void Reset() {
    head_ = 0;
    count_ = 0;
  }

 private:
  struct Event {
    Time start;
    Time end;
    double bytes;
    double whole;  // the event's term in RateAt when wholly inside the window
  };

  // ring_.size() is a power of two whenever an event is stored.
  size_t Index(size_t i) const { return (head_ + i) & (ring_.size() - 1); }

  void PushBack(const Event& event) {
    if (count_ == ring_.size()) {
      Grow();
    }
    ring_[Index(count_)] = event;
    ++count_;
  }

  // Doubles capacity, unrolling the ring into logical order.
  void Grow() {
    std::vector<Event> bigger(ring_.empty() ? 8 : ring_.size() * 2);
    for (size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[Index(i)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  // Drops events fully left of the window.  Pruning on read keeps RateAt()
  // logically const.
  void Prune(Time at) const {
    while (count_ > 0 && ring_[head_].end + tau_ <= at) {
      head_ = Index(1);
      --count_;
    }
  }

  Duration tau_;
  mutable std::vector<Event> ring_;
  mutable size_t head_ = 0;
  mutable size_t count_ = 0;
};

}  // namespace odyssey

#endif  // SRC_ESTIMATOR_USAGE_METER_H_
