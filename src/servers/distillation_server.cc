#include "src/servers/distillation_server.h"

namespace odyssey {

double WebFidelityScore(WebFidelity level) {
  switch (level) {
    case WebFidelity::kFullQuality:
      return kWebFullFidelity;
    case WebFidelity::kJpeg50:
      return kWebJpeg50Fidelity;
    case WebFidelity::kJpeg25:
      return kWebJpeg25Fidelity;
    case WebFidelity::kJpeg5:
      return kWebJpeg5Fidelity;
  }
  return 0.0;
}

void DistillationServer::PublishImage(const std::string& url, double bytes) {
  images_[url] = bytes;
}

void DistillationServer::PublishPage(const std::string& url, double html_bytes,
                                     std::vector<double> image_bytes) {
  pages_[url] = Page{html_bytes, std::move(image_bytes)};
}

Status DistillationServer::DistillPage(const std::string& url, WebFidelity level,
                                       PageReply* out) {
  const auto it = pages_.find(url);
  if (it == pages_.end()) {
    return NotFoundError("no such page: " + url);
  }
  const Page& page = it->second;
  out->html_bytes = page.html_bytes;  // markup ships as-is, reliably
  out->image_bytes = 0.0;
  out->image_count = static_cast<int>(page.image_bytes.size());
  out->fidelity = WebFidelityScore(level);

  Duration compute = kWebOriginFetch;
  for (const double original : page.image_bytes) {
    out->image_bytes += DistilledBytes(original, level);
    switch (level) {
      case WebFidelity::kFullQuality:
        break;
      case WebFidelity::kJpeg50:
        compute += kWebDistill50;
        break;
      case WebFidelity::kJpeg25:
        compute += kWebDistill25;
        break;
      case WebFidelity::kJpeg5:
        compute += kWebDistill5;
        break;
    }
  }
  out->compute = static_cast<Duration>(static_cast<double>(compute) * session_factor_ *
                                       rng_->JitterFactor(kComputeJitterStddev));
  return OkStatus();
}

Status DistillationServer::Distill(const std::string& url, WebFidelity level, DistillReply* out) {
  const auto it = images_.find(url);
  if (it == images_.end()) {
    return NotFoundError("no such image: " + url);
  }
  const double original = it->second;
  out->bytes = DistilledBytes(original, level);
  out->fidelity = WebFidelityScore(level);

  Duration compute = kWebOriginFetch;
  switch (level) {
    case WebFidelity::kFullQuality:
      break;  // shipped as-is, no distillation pass
    case WebFidelity::kJpeg50:
      compute += kWebDistill50;
      break;
    case WebFidelity::kJpeg25:
      compute += kWebDistill25;
      break;
    case WebFidelity::kJpeg5:
      compute += kWebDistill5;
      break;
  }
  out->compute = static_cast<Duration>(static_cast<double>(compute) * session_factor_ *
                                       rng_->JitterFactor(kComputeJitterStddev));
  return OkStatus();
}

double DistillationServer::DistilledBytes(double original_bytes, WebFidelity level) {
  // Distilled sizes scale with the original; the calibration constants are
  // fitted for the paper's 22 KB test image.
  const double scale = original_bytes / kWebImageBytes;
  switch (level) {
    case WebFidelity::kFullQuality:
      return original_bytes;
    case WebFidelity::kJpeg50:
      return kWebJpeg50Bytes * scale;
    case WebFidelity::kJpeg25:
      return kWebJpeg25Bytes * scale;
    case WebFidelity::kJpeg5:
      return kWebJpeg5Bytes * scale;
  }
  return original_bytes;
}

}  // namespace odyssey
