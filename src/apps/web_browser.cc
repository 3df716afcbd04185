#include "src/apps/web_browser.h"

#include <limits>
#include <utility>

#include "src/core/tsop_codec.h"
#include "src/servers/calibration.h"

namespace odyssey {
namespace {

// Fixed path costs the cellophane attributes to any fetch: origin fetch and
// distillation at the server, rendering at the client.  (The cellophane
// learns these from past fetches; we model that knowledge as constants.)
Duration FixedCosts(int level) {
  Duration fixed = kWebOriginFetch + kWebRender;
  switch (static_cast<WebFidelity>(level)) {
    case WebFidelity::kFullQuality:
      break;
    case WebFidelity::kJpeg50:
      fixed += kWebDistill50;
      break;
    case WebFidelity::kJpeg25:
      fixed += kWebDistill25;
      break;
    case WebFidelity::kJpeg5:
      fixed += kWebDistill5;
      break;
  }
  return fixed;
}

}  // namespace

WebBrowser::WebBrowser(OdysseyClient* client, WebBrowserOptions options)
    : client_(client), options_(std::move(options)) {
  app_ = client_->RegisterApplication("netscape");
  render_factor_ = client_->sim()->rng().JitterFactor(0.08);
}

Duration WebBrowser::PredictTime(const WebSessionInfo& info, int level, double bandwidth_bps,
                                 Duration rtt) {
  if (bandwidth_bps <= 0.0) {
    return std::numeric_limits<Duration>::max();
  }
  return FixedCosts(level) + rtt + SecondsToDuration(info.level_bytes[level] / bandwidth_bps);
}

void WebBrowser::Start() {
  client_->Tsop(app_, std::string(kOdysseyRoot) + "web/session", kWebOpen, options_.url,
                [this](Status status, std::string out) {
                  if (!status.ok() || !UnpackStruct(out, &info_)) {
                    return;
                  }
                  running_ = true;
                  current_level_ = options_.fixed_level >= 0 ? options_.fixed_level : 0;
                  if (options_.fixed_level > 0) {
                    WebSetFidelityRequest request{options_.fixed_level};
                    client_->Tsop(app_, std::string(kOdysseyRoot) + "web/session",
                                  kWebSetFidelity, PackStruct(request),
                                  [](Status, std::string) {});
                  }
                  FetchNext();
                });
}

int WebBrowser::ChooseLevel() const {
  const double bandwidth = client_->CurrentLevel(app_, ResourceId::kNetworkBandwidth);
  const auto rtt =
      static_cast<Duration>(client_->CurrentLevel(app_, ResourceId::kNetworkLatency));
  for (int level = 0; level < 4; ++level) {
    if (PredictTime(info_, level, bandwidth, rtt) <= options_.goal) {
      return level;
    }
  }
  return 3;  // even JPEG(5) misses the goal; degrade as far as possible
}

void WebBrowser::RegisterWindow() {
  // Stay quiet while the current level both meets the goal and remains the
  // best that does: below |lower| this level misses the goal, above |upper|
  // a better level would meet it.
  const auto rtt =
      static_cast<Duration>(client_->CurrentLevel(app_, ResourceId::kNetworkLatency));
  const auto bandwidth_floor = [&](int level) {
    const Duration budget = options_.goal - FixedCosts(level) - rtt;
    if (budget <= 0) {
      return std::numeric_limits<double>::max();
    }
    return info_.level_bytes[level] / DurationToSeconds(budget);
  };

  ResourceDescriptor descriptor;
  descriptor.resource = ResourceId::kNetworkBandwidth;
  descriptor.lower = current_level_ == 3 ? 0.0 : bandwidth_floor(current_level_);
  descriptor.upper = current_level_ == 0 ? std::numeric_limits<double>::max()
                                         : bandwidth_floor(current_level_ - 1);
  descriptor.handler = [this](RequestId, ResourceId, double) {
    window_active_ = false;
    // The fetch loop re-chooses its level before every fetch; the upcall
    // just refreshes the registration.
    if (running_ && options_.fixed_level < 0) {
      RegisterWindow();
    }
  };
  const RequestResult result = client_->Request(app_, std::move(descriptor));
  window_active_ = result.ok();
  if (result.ok()) {
    window_ = result.id;
  }
}

void WebBrowser::FetchNext() {
  if (!running_) {
    return;
  }
  if (options_.fixed_level < 0) {
    const int level = ChooseLevel();
    if (level != current_level_) {
      current_level_ = level;
      WebSetFidelityRequest request{level};
      client_->Tsop(app_, std::string(kOdysseyRoot) + "web/session", kWebSetFidelity,
                    PackStruct(request), [](Status, std::string) {});
    }
    if (!window_active_) {
      RegisterWindow();
    }
  }

  const Time started = client_->sim()->now();
  client_->Tsop(app_, std::string(kOdysseyRoot) + "web/session", kWebFetch, "",
                [this, started](Status status, std::string out) {
                  WebFetchReply reply;
                  if (status.code() == StatusCode::kDeadlineExceeded ||
                      status.code() == StatusCode::kUnavailable) {
                    // Transport failure: the page never arrived.  Record a
                    // zero-fidelity outcome and keep the loop alive — the
                    // level chooser sees the collapsed availability estimate
                    // and degrades, and full service resumes with the
                    // network.  Stopping forever on a radio shadow would be
                    // the opposite of agility.
                    ++failed_fetches_;
                    outcomes_.push_back(WebFetchOutcome{
                        started, client_->sim()->now() - started, 0.0, true});
                    client_->sim()->Schedule(options_.failure_pause, [this] { FetchNext(); });
                    return;
                  }
                  if (!status.ok() || !UnpackStruct(out, &reply)) {
                    running_ = false;  // unrecoverable (bad URL, closed session)
                    return;
                  }
                  // Decode and display before the page is usable.
                  const auto render = static_cast<Duration>(
                      static_cast<double>(kWebRender) * render_factor_ *
                      client_->sim()->rng().JitterFactor(kComputeJitterStddev));
                  client_->sim()->Schedule(render, [this, started, reply] {
                    outcomes_.push_back(WebFetchOutcome{started, client_->sim()->now() - started,
                                                        reply.fidelity});
                    client_->sim()->Schedule(options_.think_time, [this] { FetchNext(); });
                  });
                });
}

double WebBrowser::MeanSecondsBetween(Time begin, Time end) const {
  double sum = 0.0;
  int count = 0;
  for (const auto& outcome : outcomes_) {
    if (outcome.started >= begin && outcome.started < end) {
      sum += DurationToSeconds(outcome.elapsed);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

double WebBrowser::MeanFidelityBetween(Time begin, Time end) const {
  double sum = 0.0;
  int count = 0;
  for (const auto& outcome : outcomes_) {
    if (outcome.started >= begin && outcome.started < end) {
      sum += outcome.fidelity;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace odyssey
