#include "src/tracemod/waveforms.h"

namespace odyssey {

const std::vector<Waveform>& AllWaveforms() {
  static const std::vector<Waveform> kAll = {
      Waveform::kStepUp,
      Waveform::kStepDown,
      Waveform::kImpulseUp,
      Waveform::kImpulseDown,
  };
  return kAll;
}

std::string WaveformName(Waveform waveform) {
  switch (waveform) {
    case Waveform::kStepUp:
      return "step_up";
    case Waveform::kStepDown:
      return "step_down";
    case Waveform::kImpulseUp:
      return "impulse_up";
    case Waveform::kImpulseDown:
      return "impulse_down";
  }
  return "unknown";
}

ReplayTrace MakeWaveform(Waveform waveform, const WaveformParams& params) {
  switch (waveform) {
    case Waveform::kStepUp:
      return MakeStepUp(params);
    case Waveform::kStepDown:
      return MakeStepDown(params);
    case Waveform::kImpulseUp:
      return MakeImpulseUp(params);
    case Waveform::kImpulseDown:
      return MakeImpulseDown(params);
  }
  return ReplayTrace{};
}

ReplayTrace MakeStepUp(const WaveformParams& params) {
  const Duration half = params.length / 2;
  ReplayTrace trace;
  trace.Append(half, params.low_bps, params.latency);
  trace.Append(params.length - half, params.high_bps, params.latency);
  return trace;
}

ReplayTrace MakeStepDown(const WaveformParams& params) {
  const Duration half = params.length / 2;
  ReplayTrace trace;
  trace.Append(half, params.high_bps, params.latency);
  trace.Append(params.length - half, params.low_bps, params.latency);
  return trace;
}

ReplayTrace MakeImpulseUp(const WaveformParams& params) {
  const Duration lead = (params.length - params.impulse_width) / 2;
  const Duration tail = params.length - lead - params.impulse_width;
  ReplayTrace trace;
  trace.Append(lead, params.low_bps, params.latency);
  trace.Append(params.impulse_width, params.high_bps, params.latency);
  trace.Append(tail, params.low_bps, params.latency);
  return trace;
}

ReplayTrace MakeImpulseDown(const WaveformParams& params) {
  const Duration lead = (params.length - params.impulse_width) / 2;
  const Duration tail = params.length - lead - params.impulse_width;
  ReplayTrace trace;
  trace.Append(lead, params.high_bps, params.latency);
  trace.Append(params.impulse_width, params.low_bps, params.latency);
  trace.Append(tail, params.high_bps, params.latency);
  return trace;
}

ReplayTrace MakeConstant(double bandwidth_bps, Duration length, Duration latency) {
  ReplayTrace trace;
  trace.Append(length, bandwidth_bps, latency);
  return trace;
}

ReplayTrace MakeUrbanScenario(const WaveformParams& params) {
  // Figure 13 gives segment durations of 3,1,1,1,2,1,1,1,4 minutes.  The user
  // begins well-connected (3 min high), traverses an intermittent region,
  // passes the radio shadow of a large building, and ends well-connected
  // (4 min high).
  ReplayTrace trace;
  trace.Append(3 * kMinute, params.high_bps, params.latency);
  trace.Append(1 * kMinute, params.low_bps, params.latency);
  trace.Append(1 * kMinute, params.high_bps, params.latency);
  trace.Append(1 * kMinute, params.low_bps, params.latency);
  trace.Append(2 * kMinute, params.high_bps, params.latency);
  trace.Append(1 * kMinute, params.low_bps, params.latency);
  trace.Append(1 * kMinute, params.high_bps, params.latency);
  trace.Append(1 * kMinute, params.low_bps, params.latency);
  trace.Append(4 * kMinute, params.high_bps, params.latency);
  return trace;
}

ReplayTrace MakeEthernetBaseline(Duration length) {
  return MakeConstant(kEthernetBandwidth, length, kEthernetLatency);
}

}  // namespace odyssey
