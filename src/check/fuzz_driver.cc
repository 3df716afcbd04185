#include "src/check/fuzz_driver.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/tsop_codec.h"
#include "src/core/warden.h"
#include "src/metrics/experiment.h"
#include "src/servers/calibration.h"
#include "src/sim/random.h"
#include "src/wardens/bitstream_warden.h"
#include "src/wardens/file_warden.h"
#include "src/wardens/speech_warden.h"
#include "src/wardens/telemetry_warden.h"
#include "src/wardens/video_warden.h"
#include "src/wardens/web_warden.h"

namespace odyssey {

FaultPlan BuildFaultPlan(const FuzzScenario& scenario) {
  FaultPlan plan;
  plan.WithSeed(SplitMix64(scenario.seed ^ 0x6661756c7473ULL).Next());
  for (const FuzzFault& fault : scenario.faults) {
    switch (fault.kind) {
      case FuzzFaultKind::kDropProbability:
        plan.WithDropProbability(std::max(plan.drop_probability, fault.p));
        break;
      case FuzzFaultKind::kDropMessage:
        plan.WithDroppedMessage(fault.index);
        break;
      case FuzzFaultKind::kOutage:
        plan.WithOutage(fault.start, fault.duration);
        break;
      case FuzzFaultKind::kLatencySpike:
        plan.WithLatencySpike(fault.start, fault.duration, fault.extra);
        break;
      case FuzzFaultKind::kServerStall:
        plan.WithServerStall(fault.start, fault.duration, fault.extra);
        break;
      case FuzzFaultKind::kFlowKill:
        plan.WithFlowKill(fault.start);
        break;
    }
  }
  return plan;
}

void FuzzDriver::Start() {
  client_->sim()->ScheduleAt(app_.start, [this] {
    app_id_ = client_->RegisterApplication("fuzz-app-" + std::to_string(index_));
    for (const FuzzOp& op : app_.ops) {
      // &op binds the scenario-owned vector element (not the loop slot),
      // and the scenario outlives the run.
      client_->sim()->ScheduleAt(op.at, [this, &op] { Execute(op); });  // ody_lint: owned-capture
    }
  });
}

void FuzzDriver::Execute(const FuzzOp& op) {
  if (stopped_) {
    return;
  }
  switch (op.kind) {
    case FuzzOpKind::kRequest:
      DoRequest(op.window_lo_frac, op.window_hi_frac);
      break;
    case FuzzOpKind::kCancel:
      DoCancel(op.variant);
      break;
    case FuzzOpKind::kTsop:
      DoTsop(op);
      break;
  }
}

void FuzzDriver::DoRequest(double lo_frac, double hi_frac) {
  const double level = client_->CurrentLevel(app_id_, ResourceId::kNetworkBandwidth);
  // Clamp the window to contain the current level: the generator's
  // fractions may invert around 1.0, and a denied request would stall
  // the upcall loop this request is meant to feed.
  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kNetworkBandwidth;
  descriptor.lower = level * std::min(lo_frac, 0.95);
  descriptor.upper = std::max(level * std::max(hi_frac, 1.05), descriptor.lower + 1.0);
  descriptor.handler = [this, lo_frac, hi_frac](RequestId id, ResourceId, double) {
    std::erase(outstanding_, id);
    if (!stopped_ && reregister_budget_ > 0) {
      --reregister_budget_;
      DoRequest(lo_frac, hi_frac);
    }
  };
  const RequestResult granted = client_->Request(app_id_, std::move(descriptor));
  if (granted.ok()) {
    ++result_->requests_granted;
    outstanding_.push_back(granted.id);
  } else {
    ++result_->requests_denied;
    if (granted.admission.verdict == AdmissionVerdict::kRejected) {
      ++result_->admission_rejects;
    }
  }
}

void FuzzDriver::DoCancel(int variant) {
  if (outstanding_.empty()) {
    return;
  }
  const size_t index = static_cast<size_t>(variant) % outstanding_.size();
  const RequestId id = outstanding_[index];
  outstanding_.erase(outstanding_.begin() + static_cast<ptrdiff_t>(index));
  const Status status = client_->Cancel(id);
  if (status.ok()) {
    ++result_->cancels_ok;
  }
}

void FuzzDriver::DoTsop(const FuzzOp& op) {
  ++result_->tsops_issued;
  const auto discard = [](Status, std::string) {};
  switch (app_.warden) {
    case FuzzWardenKind::kVideo: {
      const std::string path = std::string(kOdysseyRoot) + "video/default";
      if (!opened_) {
        opened_ = true;
        client_->Tsop(app_id_, path, kVideoOpen, kDefaultMovie, discard);
        return;
      }
      switch (op.variant % 3) {
        case 0:
          client_->Tsop(app_id_, path, kVideoSetTrack,
                        PackStruct(VideoSetTrackRequest{op.variant % 4}), discard);
          return;
        case 1:
          client_->Tsop(
              app_id_, path, kVideoTakeFrame,
              PackStruct(VideoTakeFrameRequest{
                  static_cast<int>(op.magnitude * kVideoFramesPerTrial)}),
              discard);
          return;
        default:
          client_->Tsop(app_id_, path, kVideoStats, "", discard);
          return;
      }
    }
    case FuzzWardenKind::kWeb: {
      const std::string path = std::string(kOdysseyRoot) + "web/session";
      if (!opened_) {
        opened_ = true;
        client_->Tsop(app_id_, path, kWebOpen, kTestImageUrl, discard);
        return;
      }
      if (op.variant % 2 == 0) {
        client_->Tsop(app_id_, path, kWebSetFidelity,
                      PackStruct(WebSetFidelityRequest{op.variant % 4}), discard);
      } else {
        client_->Tsop(app_id_, path, kWebFetch, "", discard);
      }
      return;
    }
    case FuzzWardenKind::kSpeech: {
      const std::string path = std::string(kOdysseyRoot) + "speech/janus";
      if (op.variant % 3 == 0) {
        client_->Tsop(app_id_, path, kSpeechSetMode,
                      PackStruct(SpeechSetModeRequest{op.variant % 4}), discard);
      } else {
        SpeechUtterance utterance;
        // Degenerate zero-byte utterances are part of the vocabulary:
        // the warden must plan and answer them even at zero bandwidth.
        utterance.raw_bytes = op.magnitude < 0.15 ? 0.0 : op.magnitude * 40.0 * 1024.0;
        utterance.latency_goal_seconds = (op.variant % 2 == 1) ? 2.0 : 0.0;
        client_->Tsop(app_id_, path, kSpeechRecognize, PackStruct(utterance), discard);
      }
      return;
    }
    case FuzzWardenKind::kBitstream: {
      const std::string path = std::string(kOdysseyRoot) + "bitstream/stream";
      if (!streaming_) {
        streaming_ = true;
        BitstreamParams params;
        params.target_bps = (op.variant % 3 == 0) ? 0.0 : op.magnitude * 64.0 * 1024.0;
        params.window_bytes = 0.0;
        client_->Tsop(app_id_, path, kBitstreamStart, PackStruct(params), discard);
      } else {
        streaming_ = false;
        client_->Tsop(app_id_, path, kBitstreamStop, "", discard);
      }
      return;
    }
    case FuzzWardenKind::kFile: {
      const std::string path = std::string(kOdysseyRoot) + "files/doc/" +
                               std::to_string(op.variant % kFuzzFiles);
      switch (op.variant % 3) {
        case 0:
          client_->Tsop(app_id_, path, kFileSetConsistency,
                        PackStruct(FileSetConsistencyRequest{op.variant % 4}), discard);
          return;
        case 1:
          client_->Tsop(app_id_, path, kFileRead, "", discard);
          return;
        default:
          client_->Tsop(app_id_, path, kFileStats, "", discard);
          return;
      }
    }
    case FuzzWardenKind::kTelemetry: {
      const std::string path = std::string(kOdysseyRoot) + "telemetry/" + kFuzzFeed;
      if (!subscribed_) {
        subscribed_ = true;
        client_->Tsop(app_id_, path, kTelemetrySubscribe,
                      PackStruct(TelemetrySubscribeRequest{(op.variant % 4) - 1}), discard);
        return;
      }
      switch (op.variant % 3) {
        case 0:
          client_->Tsop(app_id_, path, kTelemetrySetLevel,
                        PackStruct(TelemetrySetLevelRequest{op.variant % 3}), discard);
          return;
        case 1:
          client_->Tsop(app_id_, path, kTelemetryStats, "", discard);
          return;
        default:
          subscribed_ = false;
          client_->Tsop(app_id_, path, kTelemetryUnsubscribe, "", discard);
          return;
      }
    }
  }
}

}  // namespace odyssey
