#include "src/ledger.h"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace odybench {
namespace {

// 1-based nearest rank ceil(p * n), tolerant of p * n landing a rounding
// error above an integer (0.99 * 1000 must rank 990, not 991).
size_t NearestRank(size_t n, double p) {
  return static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kSim:
      return "sim";
    case Layer::kRpcObserve:
      return "rpc.observe";
    case Layer::kStrategy:
      return "strategy";
    case Layer::kViceroyReeval:
      return "viceroy.reeval";
    case Layer::kViceroyRequest:
      return "viceroy.request";
    case Layer::kViceroyCancel:
      return "viceroy.cancel";
    case Layer::kAppHandler:
      return "app.handler";
    case Layer::kCheckOracle:
      return "check.oracle";
    case Layer::kCheckGenerate:
      return "check.generate";
    case Layer::kCheckRun:
      return "check.run";
    case Layer::kSetupRegister:
      return "setup.register";
  }
  return "unknown";
}

Ledger::Ledger(size_t max_kept_spans) : epoch_(Clock::now()), max_kept_(max_kept_spans) {
  stack_.reserve(64);
}

void Ledger::Begin(Layer layer, uint64_t app, int64_t now_ns) {
  uint32_t index = Span::kNoParent;
  if (spans_.size() < max_kept_) {
    index = static_cast<uint32_t>(spans_.size());
    Span span;
    span.layer = layer;
    span.parent = stack_.empty() ? Span::kNoParent : stack_.back().index;
    span.app = app;
    span.start_ns = now_ns;
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{layer, index, now_ns, 0});
}

void Ledger::End(int64_t now_ns) {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now_ns - open.start_ns;
  const auto slot = static_cast<size_t>(open.layer);
  self_ns_[slot] += duration - open.child_ns;
  ++calls_[slot];
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (open.index != Span::kNoParent) {
    spans_[open.index].end_ns = now_ns;
  }
}

bool Ledger::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << LayerName(span.layer) << "\",\"parent\":";
    if (span.parent == Span::kNoParent) {
      out << "null";
    } else {
      out << span.parent;
    }
    out << ",\"app\":" << span.app << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::array<int64_t, kLayerCount> SelfTimes(const std::vector<Span>& spans) {
  std::array<int64_t, kLayerCount> self{};
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent != Span::kNoParent) {
      child[span.parent] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    self[static_cast<size_t>(spans[i].layer)] += spans[i].end_ns - spans[i].start_ns - child[i];
  }
  return self;
}

bool PercentileReportable(size_t n, double p) {
  // Samples strictly beyond the nearest-rank position.
  const size_t rank = NearestRank(n, p);
  return n >= rank && n - rank >= 10;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t rank = NearestRank(samples.size(), p);
  return samples[rank == 0 ? 0 : rank - 1];
}

}  // namespace odybench
