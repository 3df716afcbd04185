// The paper's reference waveforms (Figure 7) and the urban scenario trace
// (Figure 13), expressed as replay traces.
//
// From §6.1.1: each Step waveform is 60 seconds long with a single abrupt
// transition at the midpoint; each Impulse waveform approximates an ideal
// impulse with a two-second-wide excursion in the middle of a 60-second
// period.  §6.1.3 fixes the bandwidth levels at 120 KB/s (high) and 40 KB/s
// (low) with a 21 ms protocol round-trip time at both levels.

#ifndef SRC_TRACEMOD_WAVEFORMS_H_
#define SRC_TRACEMOD_WAVEFORMS_H_

#include <string>
#include <vector>

#include "src/sim/time.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {

// Experimental constants from §6.1.3.  Bandwidths are in bytes/second
// (1 KB = 1024 bytes).
inline constexpr double kHighBandwidth = 120.0 * 1024.0;  // 120 KB/s
inline constexpr double kLowBandwidth = 40.0 * 1024.0;    // 40 KB/s
// 21 ms measured protocol round trip => 10.5 ms one-way latency.
inline constexpr Duration kOneWayLatency = 10500;
inline constexpr Duration kWaveformLength = 60 * kSecond;
inline constexpr Duration kImpulseWidth = 2 * kSecond;
// The paper primes each experiment with 30 seconds of steady state.
inline constexpr Duration kPrimingPeriod = 30 * kSecond;
// The private-Ethernet baseline used by the Web experiments (§6.2.2); 10 Mb/s
// Ethernet moves roughly 1.1 MB/s of user data.
inline constexpr double kEthernetBandwidth = 1100.0 * 1024.0;
inline constexpr Duration kEthernetLatency = 500;  // 1 ms round trip

// Parameters for waveform construction; defaults reproduce the paper.
struct WaveformParams {
  double high_bps = kHighBandwidth;
  double low_bps = kLowBandwidth;
  Duration latency = kOneWayLatency;
  Duration length = kWaveformLength;
  Duration impulse_width = kImpulseWidth;
};

enum class Waveform {
  kStepUp,
  kStepDown,
  kImpulseUp,
  kImpulseDown,
};

// All four reference waveforms, in the order the paper's tables list them.
const std::vector<Waveform>& AllWaveforms();

// Lowercase slug ("step_up", ...), the waveform's part of a scenario
// variant name.
std::string WaveformName(Waveform waveform);

// Builds the requested reference waveform.
ReplayTrace MakeWaveform(Waveform waveform, const WaveformParams& params = {});

// Low for 30 s, then high for 30 s.
ReplayTrace MakeStepUp(const WaveformParams& params = {});
// High for 30 s, then low for 30 s.
ReplayTrace MakeStepDown(const WaveformParams& params = {});
// Low, with a 2 s excursion to high centered at the midpoint.
ReplayTrace MakeImpulseUp(const WaveformParams& params = {});
// High, with a 2 s excursion to low centered at the midpoint.
ReplayTrace MakeImpulseDown(const WaveformParams& params = {});

// A constant-bandwidth trace of the given length.
ReplayTrace MakeConstant(double bandwidth_bps, Duration length,
                         Duration latency = kOneWayLatency);

// The 15-minute synthetic urban trace of Figure 13: a user starts
// well-connected, crosses a region of intermittent quality, passes through
// the radio shadow of a large building, and returns to good connectivity.
// Segment minutes: H3 L1 H1 L1 H2 L1 H1 L1 H4.
ReplayTrace MakeUrbanScenario(const WaveformParams& params = {});

// The private-Ethernet baseline trace for the Web experiment.
ReplayTrace MakeEthernetBaseline(Duration length);

}  // namespace odyssey

#endif  // SRC_TRACEMOD_WAVEFORMS_H_
