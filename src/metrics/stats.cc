#include "src/metrics/stats.h"

#include <algorithm>
#include <cmath>

namespace odyssey {

Stats::Stats(const std::vector<double>& samples) {
  for (const double sample : samples) {
    Add(sample);
  }
}

void Stats::Add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    if (sample < min_) {
      min_ = sample;
    }
    if (sample > max_) {
      max_ = sample;
    }
  }
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / count_;
  m2_ += delta * (sample - mean_);
}

double Stats::stddev() const {
  if (count_ < 2) {
    return 0.0;
  }
  return std::sqrt(m2_ / (count_ - 1));
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) {
    return 0.0;
  }
  if (pct > 100.0) {
    pct = 100.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  // Nearest rank, 1-based: rank = ceil(pct/100 * n), clamped to [1, n].
  auto rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > n) {
    rank = n;
  }
  return samples[rank - 1];
}

SummaryStats Summarize(const std::vector<double>& samples) {
  SummaryStats out;
  if (samples.empty()) {
    return out;
  }
  const Stats stats(samples);
  out.count = stats.count();
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  out.min = stats.min();
  out.max = stats.max();
  out.p50 = Percentile(samples, 50.0);
  out.p95 = Percentile(samples, 95.0);
  out.p99 = Percentile(samples, 99.0);
  return out;
}

double SettlingTime(const Series& series, double from, double lo, double hi) {
  double settled_at = -1.0;
  for (const auto& point : series) {
    if (point.t_seconds < from) {
      continue;
    }
    const bool inside = point.value >= lo && point.value <= hi;
    if (inside) {
      if (settled_at < 0.0) {
        settled_at = point.t_seconds;
      }
    } else {
      settled_at = -1.0;
    }
  }
  return settled_at < 0.0 ? -1.0 : settled_at - from;
}

}  // namespace odyssey
