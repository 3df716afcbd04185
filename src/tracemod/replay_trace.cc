#include "src/tracemod/replay_trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

namespace odyssey {

ReplayTrace::ReplayTrace(std::vector<TraceSegment> segments) : segments_(std::move(segments)) {}

ReplayTrace& ReplayTrace::Append(Duration duration, double bandwidth_bps, Duration latency) {
  segments_.push_back(TraceSegment{duration, bandwidth_bps, latency});
  return *this;
}

ReplayTrace& ReplayTrace::Append(const TraceSegment& segment) {
  segments_.push_back(segment);
  return *this;
}

Duration ReplayTrace::TotalDuration() const {
  Duration total = 0;
  for (const auto& segment : segments_) {
    total += segment.duration;
  }
  return total;
}

TraceSegment ReplayTrace::At(Time t) const {
  if (segments_.empty()) {
    return TraceSegment{};
  }
  Time cursor = 0;
  for (const auto& segment : segments_) {
    cursor += segment.duration;
    if (t < cursor) {
      return segment;
    }
  }
  return segments_.back();
}

double ReplayTrace::IntegralBytes(Time until) const {
  double bytes = 0.0;
  Time t = 0;
  for (const auto& segment : segments_) {
    if (t >= until) {
      return bytes;
    }
    const Duration span = std::min(segment.duration, until - t);
    bytes += segment.bandwidth_bps * DurationToSeconds(span);
    t += span;
  }
  if (t < until && !segments_.empty()) {
    bytes += segments_.back().bandwidth_bps * DurationToSeconds(until - t);
  }
  return bytes;
}

double IntegralCursor::IntegralBytes(Time until) {
  if (until < last_until_) {
    next_ = 0;
    start_ = 0;
    whole_ = 0.0;
  }
  last_until_ = until;
  // ReplayTrace::IntegralBytes' loop, resumed where the last call left it:
  // a segment that starts before |until| and ends by it adds its whole
  // area; the first one that does not is cut at |until|.
  const std::vector<TraceSegment>& segments = trace_->segments();
  for (; next_ < segments.size() && start_ < until && segments[next_].duration <= until - start_;
       ++next_) {
    whole_ += segments[next_].bandwidth_bps * DurationToSeconds(segments[next_].duration);
    start_ += segments[next_].duration;
  }
  if (start_ >= until || segments.empty()) {
    return whole_;
  }
  const TraceSegment& cut = next_ < segments.size() ? segments[next_] : segments.back();
  return whole_ + cut.bandwidth_bps * DurationToSeconds(until - start_);
}

ReplayTrace ReplayTrace::WithPriming(Duration lead) const {
  ReplayTrace primed;
  if (lead > 0 && !segments_.empty()) {
    primed.Append(lead, segments_.front().bandwidth_bps, segments_.front().latency);
  }
  for (const auto& segment : segments_) {
    primed.Append(segment);
  }
  return primed;
}

ReplayTrace ReplayTrace::Concat(const ReplayTrace& other) const {
  ReplayTrace joined = *this;
  for (const auto& segment : other.segments_) {
    joined.Append(segment);
  }
  return joined;
}

ReplayTrace ReplayTrace::ScaledBandwidth(double factor) const {
  ReplayTrace scaled = *this;
  for (auto& segment : scaled.segments_) {
    segment.bandwidth_bps *= factor;
  }
  return scaled;
}

namespace {

// |value| at 15 significant digits (full microsecond fidelity for durations
// of any length) when that text reads back as the same double, else at 17,
// which always does.  Values that round-trip at 15 keep their short text.
std::string RoundTripNumber(double value) {
  char buffer[32];
  char* end = std::to_chars(buffer, std::end(buffer), value, std::chars_format::general, 15).ptr;
  double parsed = 0.0;
  std::from_chars(buffer, end, parsed);
  if (parsed != value) {
    end = std::to_chars(buffer, std::end(buffer), value, std::chars_format::general, 17).ptr;
  }
  return std::string(buffer, end);
}

}  // namespace

std::string ReplayTrace::Serialize() const {
  std::ostringstream os;
  os << "# odyssey replay trace: <seconds> <bytes_per_sec> <latency_us>\n";
  for (const auto& segment : segments_) {
    os << RoundTripNumber(DurationToSeconds(segment.duration)) << " "
       << RoundTripNumber(segment.bandwidth_bps) << " " << segment.latency << "\n";
  }
  return os.str();
}

bool ReplayTrace::Parse(const std::string& text, ReplayTrace* out) {
  // Segments and the whole trace are capped at half the int64 microsecond
  // range (about 73,000 years).  The double-to-Duration conversion then
  // cannot round past 2^63, and the offsets At() and IntegralBytes() sum,
  // plus a start time of the same order, stay representable.
  constexpr Duration kMaxTotal = std::numeric_limits<Duration>::max() / 2;
  constexpr double kMaxSeconds = DurationToSeconds(kMaxTotal);
  ReplayTrace parsed;
  Duration total = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    // Strip comments.
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    if (line.find_first_not_of(" \t\r\v\f") == std::string::npos) {
      continue;  // blank or comment-only line
    }
    std::istringstream fields(line);
    double seconds = 0.0;
    double bandwidth = 0.0;
    long long latency_us = 0;
    if (!(fields >> seconds >> bandwidth >> latency_us)) {
      return false;  // a field is missing, malformed or out of range
    }
    if (!std::isfinite(seconds) || !std::isfinite(bandwidth) || seconds < 0.0 ||
        bandwidth < 0.0 || latency_us < 0 || seconds > kMaxSeconds) {
      return false;
    }
    const Duration duration = SecondsToDuration(seconds);
    if (duration > kMaxTotal - total) {
      return false;
    }
    total += duration;
    parsed.Append(duration, bandwidth, latency_us);
  }
  *out = std::move(parsed);
  return true;
}

std::ostream& operator<<(std::ostream& os, const ReplayTrace& trace) {
  return os << trace.Serialize();
}

}  // namespace odyssey
