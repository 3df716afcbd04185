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
//
// The ring is split by temperature.  A hot array holds each event's
// {start, whole}; a cold one its {end, bytes}.  End times never decrease,
// so when the newest end is at or before |at| (always so for a read at or
// after the last record, which is how the supply model reads) every event
// ends inside the window, and an event lies wholly inside exactly when it
// starts after the window's left edge.  That read streams the hot array
// alone, 16 bytes an event, and touches the cold array only for an event
// straddling the left edge (a point delivery at or before the edge has
// already been pruned).  A read before the newest end takes the general
// test, event by event.  Measured with
// rdtsc on a shared 2.1 GHz 4-vCPU host, the supply model's scan over
// stream_256's 255 live meters (about 9.6 events each) fell from about 13k
// to about 11.6k cycles per observation.

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
    PushBack(start, end, bytes, whole);
  }

  // Point-delivery convenience.
  void Record(Time at, double bytes) { Record(at, at, bytes); }

  // Consumption rate in bytes/second over the window (at - tau, at].
  double RateAt(Time at) const {
    Prune(at);
    const Time window_start = at - tau_;
    // The ring is at most two contiguous runs: head to the end of the
    // arrays, then the wrapped part from slot 0.  Summing the runs in that
    // order visits the events in logical order.
    const size_t first_run = count_ < capacity_ - head_ ? count_ : capacity_ - head_;
    double bytes_in_window = 0.0;
    if (newest_end_ <= at) {
      bytes_in_window = SumEnded(head_, head_ + first_run, at, window_start, bytes_in_window);
      bytes_in_window = SumEnded(0, count_ - first_run, at, window_start, bytes_in_window);
    } else {
      bytes_in_window = SumAny(head_, head_ + first_run, at, window_start, bytes_in_window);
      bytes_in_window = SumAny(0, count_ - first_run, at, window_start, bytes_in_window);
    }
    return bytes_in_window / DurationToSeconds(tau_);
  }

  // Whether recorded usage within the window is significant (the
  // connection is "active" for fair-share counting).
  bool ActiveAt(Time at, double threshold_bps = 16.0) const { return RateAt(at) > threshold_bps; }

  Time last_event() const { return count_ == 0 ? 0 : newest_end_; }

  // No recorded events survive (everything pruned or never recorded).  The
  // rate is then exactly 0.0 at this and every later instant, which is what
  // lets the supply model drop the meter from its live set.
  bool empty() const { return count_ == 0; }

  void Reset() {
    head_ = 0;
    count_ = 0;
  }

 private:
  struct Hot {
    Time start;
    double whole;  // the event's term in RateAt when wholly inside the window
  };
  struct Cold {
    Time end;
    double bytes;
  };

  // capacity_ is a power of two whenever an event is stored.
  size_t Index(size_t i) const { return (head_ + i) & (capacity_ - 1); }

  // Adds the terms of slots [begin, end) to |sum| when every stored event
  // ends at or before |at|: a start after |window_start| then means wholly
  // inside.
  double SumEnded(size_t begin, size_t end, Time at, Time window_start, double sum) const {
    const Hot* hot = hot_.data();
    for (size_t slot = begin; slot < end; ++slot) {
      if (hot[slot].start > window_start) {
        sum += hot[slot].whole;
      } else {
        sum = AddPartial(slot, at, window_start, sum);
      }
    }
    return sum;
  }

  // The same terms with no assumption about the events' ends.
  double SumAny(size_t begin, size_t end, Time at, Time window_start, double sum) const {
    for (size_t slot = begin; slot < end; ++slot) {
      if (hot_[slot].start > window_start && cold_[slot].end <= at) {
        // Wholly inside the window (a point delivery counts fully).
        sum += hot_[slot].whole;
      } else {
        sum = AddPartial(slot, at, window_start, sum);
      }
    }
    return sum;
  }

  // The term of an event not wholly inside the window: its pro-rata
  // overlap, or nothing for a point delivery outside it.
  double AddPartial(size_t slot, Time at, Time window_start, double sum) const {
    const Time start = hot_[slot].start;
    const Time end = cold_[slot].end;
    if (start == end) {
      return sum;  // a point delivery outside the window
    }
    const Time lo = start > window_start ? start : window_start;
    const Time hi = end < at ? end : at;
    if (hi > lo) {
      sum += cold_[slot].bytes * static_cast<double>(hi - lo) / static_cast<double>(end - start);
    }
    return sum;
  }

  void PushBack(Time start, Time end, double bytes, double whole) {
    if (count_ == capacity_) {
      Grow();
    }
    const size_t slot = Index(count_);
    hot_[slot] = Hot{start, whole};
    cold_[slot] = Cold{end, bytes};
    newest_end_ = end;
    ++count_;
  }

  // Doubles capacity, unrolling the ring into logical order.
  void Grow() {
    const size_t capacity = capacity_ == 0 ? 8 : capacity_ * 2;
    std::vector<Hot> hot(capacity);
    std::vector<Cold> cold(capacity);
    for (size_t i = 0; i < count_; ++i) {
      hot[i] = hot_[Index(i)];
      cold[i] = cold_[Index(i)];
    }
    hot_.swap(hot);
    cold_.swap(cold);
    capacity_ = capacity;
    head_ = 0;
  }

  // Drops events fully left of the window.  Pruning on read keeps RateAt()
  // logically const.
  void Prune(Time at) const {
    while (count_ > 0 && cold_[head_].end + tau_ <= at) {
      head_ = Index(1);
      --count_;
    }
  }

  Duration tau_;
  std::vector<Hot> hot_;    // by slot; capacity_ entries
  std::vector<Cold> cold_;  // by slot; capacity_ entries
  size_t capacity_ = 0;
  Time newest_end_ = 0;  // the last recorded end, while count_ > 0
  mutable size_t head_ = 0;
  mutable size_t count_ = 0;
};

}  // namespace odyssey

#endif  // SRC_ESTIMATOR_USAGE_METER_H_
