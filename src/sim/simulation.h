// The discrete-event simulation context shared by every Odyssey component.
//
// A Simulation owns the virtual clock and the event queue.  Components hold a
// Simulation* and schedule callbacks; the driver calls Run() (or RunUntil())
// to advance virtual time.  The whole system is single-threaded: the paper's
// viceroy and wardens run on cooperatively scheduled user-level threads in a
// single address space, which an event loop models faithfully and
// reproducibly.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace odyssey {

class TraceRecorder;

class Simulation {
 public:
  // |seed| determines the trial's random stream (compute-cost jitter etc.).
  explicit Simulation(uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current virtual time.
  Time now() const { return now_; }

  Rng& rng() { return rng_; }

  // Schedules |cb| to run after |delay| microseconds of virtual time.
  // Negative delays are clamped to zero (fire "now", after currently queued
  // same-time events).
  EventHandle Schedule(Duration delay, EventQueue::Callback cb) {
    if (delay < 0) {
      delay = 0;
    }
    return queue_.ScheduleAt(now_ + delay, std::move(cb));
  }

  // Schedules |cb| at absolute virtual time |when| (clamped to now).
  EventHandle ScheduleAt(Time when, EventQueue::Callback cb) {
    if (when < now_) {
      when = now_;
    }
    return queue_.ScheduleAt(when, std::move(cb));
  }

  // Fire-and-forget variants: same ordering as Schedule/ScheduleAt but no
  // cancellation handle.  Use for events that always run (dispatch ticks,
  // samplers).
  void Post(Duration delay, EventQueue::Callback cb) {
    if (delay < 0) {
      delay = 0;
    }
    queue_.PostAt(now_ + delay, std::move(cb));
  }

  void PostAt(Time when, EventQueue::Callback cb) {
    if (when < now_) {
      when = now_;
    }
    queue_.PostAt(when, std::move(cb));
  }

  // Runs events until the queue is empty.
  void Run() { RunUntil(std::numeric_limits<Time>::max()); }

  // Runs events with firing time <= |deadline|; afterwards now() ==
  // max(deadline, time reached), so periodic samplers see a consistent clock.
  void RunUntil(Time deadline) {
    Time when = 0;
    while (queue_.PeekTime(&when) && when <= deadline) {
      if (step_observer_) {
        step_observer_(when);
      }
      now_ = when;  // the clock reads the event's time inside its callback
      queue_.RunNext(&when);
      ++events_processed_;
    }
    if (deadline != std::numeric_limits<Time>::max() && now_ < deadline) {
      now_ = deadline;
    }
  }

  // Runs a single event if one exists; returns whether one ran.
  bool Step() {
    Time when = 0;
    if (!queue_.PeekTime(&when)) {
      return false;
    }
    if (step_observer_) {
      step_observer_(when);
    }
    now_ = when;
    if (!queue_.RunNext(&when)) {
      return false;
    }
    ++events_processed_;
    return true;
  }

  size_t pending_events() { return queue_.size(); }

  // Events fired so far — the numerator of the campaign's events/sec rate.
  uint64_t events_processed() const { return events_processed_; }

  // Allocates the next connection id for an Endpoint built on this
  // simulation.  Ids are per-simulation (not process-global) so that trials
  // are shared-nothing: a rig constructed from the same seed assigns the
  // same ids no matter how many other trials ran before it or on which
  // thread, which the campaign runner's jobs-invariance guarantee needs.
  // Starts at 1; 0 means "no connection".
  uint64_t NextConnectionId() { return next_connection_id_++; }

  // Opt-in tracing: when a recorder is installed, instrumented components
  // record events into it; when null (the default) every ODY_TRACE_* macro
  // reduces to a pointer test.  The recorder is borrowed, not owned.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

  // Opt-in step observation: called with each event's firing time just
  // before its callback runs, while now() still reads the previous event's
  // time.  Lets the fuzzing oracles audit clock monotonicity across every
  // event rather than at sampling points; unset (the default) costs one
  // branch per event.
  void set_step_observer(std::function<void(Time)> observer) {
    step_observer_ = std::move(observer);
  }

  // Opt-in same-timestamp audit (see EventQueue::set_tie_observer): reports
  // every consecutively fired pair of events that share a virtual
  // timestamp, so the fuzzing oracles can verify the deterministic
  // tie-break key orders them.  Unset (the default) costs one branch per
  // event.
  void set_tie_observer(EventQueue::TieObserver observer) {
    queue_.set_tie_observer(std::move(observer));
  }

#ifdef ODYSSEY_FUZZ_SELFTEST
  // Forwards the tie-break-removal self-test mutation to the event queue
  // (see EventQueue::set_selftest_lifo_ties).  Selftest builds only.
  void set_selftest_lifo_ties(bool enabled) { queue_.set_selftest_lifo_ties(enabled); }
#endif

 private:
  Time now_ = 0;
  EventQueue queue_;
  Rng rng_;
  TraceRecorder* trace_ = nullptr;
  std::function<void(Time)> step_observer_;
  uint64_t next_connection_id_ = 1;
  uint64_t events_processed_ = 0;
};

}  // namespace odyssey

#endif  // SRC_SIM_SIMULATION_H_
