// Replay traces for trace modulation (Noble et al., SIGCOMM'97; paper §6.1.2).
//
// The paper emulates slow target networks over a fast LAN by delaying traffic
// according to a simple linear model (latency + bandwidth-induced delay) whose
// parameters are read from a *replay trace*.  A ReplayTrace here is a sequence
// of piecewise-constant segments, each giving a duration, a nominal bandwidth
// and a one-way latency.  The net::Modulator feeds these parameters to an
// emulated link at the right virtual times.

#ifndef SRC_TRACEMOD_REPLAY_TRACE_H_
#define SRC_TRACEMOD_REPLAY_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace odyssey {

// One piecewise-constant segment of a replay trace.
struct TraceSegment {
  Duration duration = 0;         // how long these parameters hold
  double bandwidth_bps = 0.0;    // nominal link bandwidth, bytes/second
  Duration latency = 0;          // one-way latency

  bool operator==(const TraceSegment&) const = default;
};

class ReplayTrace {
 public:
  ReplayTrace() = default;
  explicit ReplayTrace(std::vector<TraceSegment> segments);

  // Appends a segment; returns *this for fluent construction.
  ReplayTrace& Append(Duration duration, double bandwidth_bps, Duration latency);
  ReplayTrace& Append(const TraceSegment& segment);

  const std::vector<TraceSegment>& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }

  // Total duration of all segments.
  Duration TotalDuration() const;

  // Parameters in effect at time |t| (relative to trace start).  Times at or
  // past the end of the trace hold the final segment's parameters, matching
  // the modulation daemon's behaviour when a trace runs out.  An empty trace
  // yields a zero segment.
  TraceSegment At(Time t) const;

  // Nominal bandwidth at time |t| — the "theoretical bandwidth" dashed line
  // of Figure 8.
  double BandwidthAt(Time t) const { return At(t).bandwidth_bps; }

  // Integral of the nominal bandwidth over [0, until], in bytes — the upper
  // bound on what a link modulated by this trace can deliver.  The final
  // segment persists past the end of the trace (the At() rule), zero-width
  // segments contribute nothing, and zero-bandwidth shadows integrate to
  // zero.  This is the one audited integration path shared by the fuzzer's
  // byte-conservation oracle and mobility-generated waveforms.
  double IntegralBytes(Time until) const;

  // Returns a trace shifted in time by prefixing a segment that repeats the
  // first segment's parameters for |lead| microseconds.  Used to implement
  // the paper's 30-second priming period before observation starts.
  ReplayTrace WithPriming(Duration lead) const;

  // Concatenates |other| onto a copy of this trace.
  ReplayTrace Concat(const ReplayTrace& other) const;

  // Returns a copy with every bandwidth multiplied by |factor|.
  ReplayTrace ScaledBandwidth(double factor) const;

  // Serialization: one segment per line, "<seconds> <bytes_per_sec> <latency_us>".
  // Lines starting with '#' and blank lines are ignored on parse.
  std::string Serialize() const;
  static bool Parse(const std::string& text, ReplayTrace* out);

  bool operator==(const ReplayTrace&) const = default;

 private:
  std::vector<TraceSegment> segments_;
};

// IntegralBytes() over a run of instants that rarely go backwards, at
// amortized O(1) per call instead of a walk from the trace's start.  The
// cursor keeps the sum over the whole segments already passed and adds the
// same terms in the same order IntegralBytes() does, so each result is
// bit-identical to it.  An instant earlier than the previous one restarts
// the sum from the trace's start.  The trace must outlive the cursor and
// not change under it.
class IntegralCursor {
 public:
  explicit IntegralCursor(const ReplayTrace* trace) : trace_(trace) {}

  double IntegralBytes(Time until);

 private:
  const ReplayTrace* trace_;
  size_t next_ = 0;      // first segment not yet summed whole
  Time start_ = 0;       // where segment |next_| starts
  double whole_ = 0.0;   // sum over the segments before |next_|
  Time last_until_ = 0;
};

std::ostream& operator<<(std::ostream& os, const ReplayTrace& trace);

}  // namespace odyssey

#endif  // SRC_TRACEMOD_REPLAY_TRACE_H_
