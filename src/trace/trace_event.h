// The odytrace event model: fixed-size POD events in virtual time.
//
// Every event carries the simulation timestamp at which it was recorded, a
// category (the subsystem that emitted it), a phase (span begin/end,
// instant, or counter sample), a compile-time-constant name, a correlation
// id, and up to two named numeric arguments.  Events are trivially copyable
// and contain no owned memory, so recording is a struct copy into a
// preallocated buffer — nothing on the hot path allocates.
//
// Names and argument names MUST be string literals (the ODY_TRACE_* macros
// in src/trace/trace_macros.h enforce this at compile time, and
// tools/ody_lint enforces it at review time): the recorder stores the
// pointers, not copies, and a dynamically built string would both dangle
// and allocate.

#ifndef SRC_TRACE_TRACE_EVENT_H_
#define SRC_TRACE_TRACE_EVENT_H_

#include <cstdint>
#include <type_traits>

#include "src/sim/time.h"

namespace odyssey {

// The per-component categories.  Each category becomes its own track in the
// exported chrome://tracing view.
enum class TraceCategory : uint8_t {
  kSim = 0,        // simulation substrate (run markers, queue health)
  kViceroy = 1,    // request/cancel/arbitration and upcall dispatch
  kWarden = 2,     // fidelity transitions and warden-level operations
  kEstimator = 3,  // EWMA inputs, supply/demand updates
  kRpc = 4,        // endpoint exchanges, retries, backoff, timeouts
  kNet = 5,        // link/modulator transitions
  kFault = 6,      // injected drops, outages, spikes, stalls, kills
  kApp = 7,        // application-level adaptation decisions
};

inline constexpr int kTraceCategoryCount = 8;

// Stable lowercase category name, used as the chrome-trace "cat" field.
constexpr const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case TraceCategory::kSim:
      return "sim";
    case TraceCategory::kViceroy:
      return "viceroy";
    case TraceCategory::kWarden:
      return "warden";
    case TraceCategory::kEstimator:
      return "estimator";
    case TraceCategory::kRpc:
      return "rpc";
    case TraceCategory::kNet:
      return "net";
    case TraceCategory::kFault:
      return "fault";
    case TraceCategory::kApp:
      return "app";
  }
  return "unknown";
}

enum class TracePhase : uint8_t {
  kSpanBegin = 0,  // start of a duration (async span, correlated by id)
  kSpanEnd = 1,    // end of a duration
  kInstant = 2,    // a point event
  kCounter = 3,    // a sampled value (arg0 is the sample)
};

// Stable single-character phase code, matching the chrome-trace "ph" field
// for async begin/end, instant, and counter events.
constexpr const char* TracePhaseCode(TracePhase phase) {
  switch (phase) {
    case TracePhase::kSpanBegin:
      return "b";
    case TracePhase::kSpanEnd:
      return "e";
    case TracePhase::kInstant:
      return "i";
    case TracePhase::kCounter:
      return "C";
  }
  return "?";
}

// One trace event.  56 bytes, trivially copyable, no owned storage.
struct TraceEvent {
  Time ts = 0;  // virtual time, microseconds since simulation start
  TraceCategory category = TraceCategory::kSim;
  TracePhase phase = TracePhase::kInstant;
  const char* name = nullptr;       // static string; never freed
  uint64_t id = 0;                  // span/app/connection correlation id
  const char* arg0_name = nullptr;  // static string or null
  const char* arg1_name = nullptr;  // static string or null
  double arg0 = 0.0;
  double arg1 = 0.0;
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay POD: recording is a struct copy");

}  // namespace odyssey

#endif  // SRC_TRACE_TRACE_EVENT_H_
