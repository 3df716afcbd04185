// Tests for the measurement utilities: statistics, settling time, tables,
// and sampling.

#include <gtest/gtest.h>

#include "src/metrics/stats.h"
#include "src/metrics/table.h"
#include "src/metrics/trial.h"

namespace odyssey {
namespace {

TEST(StatsTest, EmptyIsZero) {
  Stats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(StatsTest, SingleSample) {
  Stats stats;
  stats.Add(7.0);
  EXPECT_EQ(stats.count(), 1);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 7.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
}

TEST(StatsTest, KnownMeanAndSampleStddev) {
  // Paper tables use mean (stddev) of five trials; sample stddev uses n-1.
  Stats stats({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(StatsTest, WelfordMatchesNaiveOnLargeStream) {
  Stats stats;
  double sum = 0.0;
  double sumsq = 0.0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    const double x = 1000.0 + (i % 17) * 0.25;
    stats.Add(x);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  const double var = (sumsq - kN * mean * mean) / (kN - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-9);
  EXPECT_NEAR(stats.stddev() * stats.stddev(), var, 1e-6);
}

TEST(PercentileTest, NearestRankOnKnownSamples) {
  // The NIST nearest-rank example: rank = ceil(p/100 * n) into the sorted
  // samples, never interpolated.
  const std::vector<double> samples = {15.0, 20.0, 35.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Percentile(samples, 5.0), 15.0);    // ceil(0.25) = 1st
  EXPECT_DOUBLE_EQ(Percentile(samples, 30.0), 20.0);   // ceil(1.5) = 2nd
  EXPECT_DOUBLE_EQ(Percentile(samples, 40.0), 20.0);   // ceil(2.0) = 2nd
  EXPECT_DOUBLE_EQ(Percentile(samples, 50.0), 35.0);   // ceil(2.5) = 3rd
  EXPECT_DOUBLE_EQ(Percentile(samples, 100.0), 50.0);  // always the max
}

TEST(PercentileTest, OrderInsensitiveAndClamped) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> shuffled = {3.0, 1.0, 4.0, 2.0};
  for (double pct : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile(sorted, pct), Percentile(shuffled, pct)) << pct;
  }
  // Out-of-range percentiles clamp to (0, 100]; empty input yields zero.
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 250.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, SingleSampleIsEveryPercentile) {
  for (double pct : {1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile({42.0}, pct), 42.0);
  }
}

TEST(SummarizeTest, CombinesMomentsAndPercentiles) {
  // 1..100: mean 50.5, p50 = 50th sample = 50, p95 = 95, p99 = 99.
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(static_cast<double>(i));
  }
  const SummaryStats summary = Summarize(samples);
  EXPECT_EQ(summary.count, 100);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_NEAR(summary.stddev, 29.011, 0.001);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_DOUBLE_EQ(summary.p50, 50.0);
  EXPECT_DOUBLE_EQ(summary.p95, 95.0);
  EXPECT_DOUBLE_EQ(summary.p99, 99.0);
}

TEST(SummarizeTest, EmptyIsAllZero) {
  const SummaryStats summary = Summarize({});
  EXPECT_EQ(summary.count, 0);
  EXPECT_DOUBLE_EQ(summary.mean, 0.0);
  EXPECT_DOUBLE_EQ(summary.p99, 0.0);
}

TEST(SettlingTimeTest, FindsEntryIntoBand) {
  Series series;
  for (int i = 0; i <= 100; ++i) {
    // Ramps from 0 to 100 over t=0..10s.
    series.push_back(SeriesPoint{i * 0.1, static_cast<double>(i)});
  }
  // Band [80, 200] is entered at value 80 -> t = 8.0; measuring from 5.0.
  EXPECT_NEAR(SettlingTime(series, 5.0, 80.0, 200.0), 3.0, 0.11);
}

TEST(SettlingTimeTest, MustStayInsideThroughEnd) {
  Series series = {{0.0, 100.0}, {1.0, 50.0}, {2.0, 100.0}, {3.0, 100.0}};
  // Enters [90,110] at t=0 but leaves at t=1; the settle is at t=2.
  EXPECT_DOUBLE_EQ(SettlingTime(series, 0.0, 90.0, 110.0), 2.0);
}

TEST(SettlingTimeTest, NeverSettlesIsNegative) {
  Series series = {{0.0, 1.0}, {1.0, 2.0}};
  EXPECT_LT(SettlingTime(series, 0.0, 90.0, 110.0), 0.0);
  EXPECT_LT(SettlingTime({}, 0.0, 0.0, 1.0), 0.0);
}

TEST(TableTest, AlignsColumnsAndPadsRows) {
  Table table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name"});  // short row padded with an empty cell
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator line present, sized to the widest row.
  EXPECT_NE(out.find("-----"), std::string::npos);
  const size_t header_width = out.find('\n');
  ASSERT_NE(header_width, std::string::npos);
  const size_t separator_start = header_width + 1;
  const size_t separator_end = out.find('\n', separator_start);
  EXPECT_GE(separator_end - separator_start, std::string("longer-name  value").size());
}

TEST(SamplerTest, SamplesAtPeriodRelativeToEpoch) {
  Simulation sim;
  double value = 1.0;
  Sampler sampler(&sim, kSecond, 10 * kSecond, [&] { return value; });
  sim.ScheduleAt(10 * kSecond, [&] { sampler.Run(15 * kSecond); });
  sim.ScheduleAt(12 * kSecond + 1, [&] { value = 2.0; });
  sim.RunUntil(20 * kSecond);
  const Series& series = sampler.series();
  ASSERT_EQ(series.size(), 6u);  // t = 0..5 s relative to the epoch
  EXPECT_DOUBLE_EQ(series[0].t_seconds, 0.0);
  EXPECT_DOUBLE_EQ(series[5].t_seconds, 5.0);
  EXPECT_DOUBLE_EQ(series[2].value, 1.0);
  EXPECT_DOUBLE_EQ(series[3].value, 2.0);
}

}  // namespace
}  // namespace odyssey
