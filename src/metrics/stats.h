// Summary statistics for experiment reporting.
//
// The paper reports each observation as the mean of five trials with the
// standard deviation in parentheses; Stats accumulates samples with
// Welford's algorithm, and Summarize adds the percentiles the campaign
// artifacts report.

#ifndef SRC_METRICS_STATS_H_
#define SRC_METRICS_STATS_H_

#include <vector>

namespace odyssey {

class Stats {
 public:
  Stats() = default;
  explicit Stats(const std::vector<double>& samples);

  void Add(double sample);

  int count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  // Sample standard deviation (n-1 denominator); zero for fewer than two
  // samples.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Nearest-rank percentile: the smallest sample s such that at least
// ceil(pct/100 * n) of the samples are <= s.  Takes its input by value and
// sorts the copy, so the result is deterministic regardless of sample
// order and no interpolation ever mixes two samples.  |pct| is clamped to
// (0, 100]; an empty input yields 0.
double Percentile(std::vector<double> samples, double pct);

// The full per-metric summary the campaign artifact layer reports.
// Percentiles are nearest-rank (see Percentile) so a summary of n trials is
// a pure function of the sample multiset.
struct SummaryStats {
  int count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

SummaryStats Summarize(const std::vector<double>& samples);

// A timestamped series of measurements (estimate traces for Figures 8/9).
struct SeriesPoint {
  double t_seconds = 0.0;
  double value = 0.0;
};

using Series = std::vector<SeriesPoint>;

// First time >= |from| at which |series| enters [lo, hi] and stays inside
// through the end; returns a negative value if it never settles.  This is
// the control-systems settling time used to quantify agility.
double SettlingTime(const Series& series, double from, double lo, double hi);

}  // namespace odyssey

#endif  // SRC_METRICS_STATS_H_
