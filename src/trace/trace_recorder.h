// TraceRecorder: a bounded buffer of trace events.
//
// The recorder is the only mutable state in the odytrace subsystem.  It is
// constructed with a fixed capacity (all storage preallocated), installed
// into a Simulation with Simulation::set_trace(), and consulted by the
// ODY_TRACE_* macros: a null recorder makes every macro a single pointer
// test, so instrumentation costs nothing on runs that do not record.
//
// On overflow the recorder keeps the oldest events and counts the rest as
// dropped: the held events are always a stable prefix of the run, which is
// what golden-trace diffing wants.
//
// Determinism: the recorder draws nothing from wall clock or entropy.  Two
// runs with the same seed record identical event sequences, which is what
// the golden-trace regression enforces.

#ifndef SRC_TRACE_TRACE_RECORDER_H_
#define SRC_TRACE_TRACE_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/trace/trace_event.h"

namespace odyssey {

class TraceRecorder {
 public:
  // Default capacity: 256k events (~14 MB), ample for any single scenario
  // in the suite while keeping accidental recorders cheap.
  static constexpr size_t kDefaultCapacity = size_t{1} << 18;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Appends |event|, or drops it when the buffer is full.  Never allocates.
  void Record(const TraceEvent& event);

  // Issues a fresh span-correlation id (1-based, monotonically increasing).
  uint64_t NextSpanId() { return ++last_span_id_; }

  // Events currently held, in recording order.
  size_t size() const { return size_; }
  size_t capacity() const { return events_.size(); }
  // Total events ever offered to Record().
  uint64_t recorded_count() const { return recorded_; }
  // Events lost to overflow.
  uint64_t dropped_count() const { return dropped_; }

  // The held events in chronological (recording) order.
  std::vector<TraceEvent> Snapshot() const;

  // Events held per category, indexed by static_cast<int>(TraceCategory).
  const uint64_t* category_counts() const { return category_counts_; }

  // Forgets all events and counters (span ids keep increasing, so ids stay
  // unique across a Clear).
  void Clear();

 private:
  std::vector<TraceEvent> events_;  // fixed-size storage; [0, size_) held
  size_t size_ = 0;                 // events currently held
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
  uint64_t last_span_id_ = 0;
  uint64_t category_counts_[kTraceCategoryCount] = {};
};

}  // namespace odyssey

#endif  // SRC_TRACE_TRACE_RECORDER_H_
