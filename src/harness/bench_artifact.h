// Bench artifacts: versioned JSON summaries of campaign runs, and the
// regression gate that compares two of them.
//
// AggregateCampaign folds per-trial metrics into per-variant summary
// statistics (mean/std/min/max/p50/p95/p99 via metrics/stats); ArtifactToJson
// serializes with hand-ordered keys and canonical number formatting so the
// bytes are a pure function of the campaign spec and seeds — the
// jobs-invariance guarantee is checked at this layer, by byte-comparing
// artifacts.  ParseArtifact reads one back (trace_json), ArtifactToTables
// renders it for people, and CompareArtifacts applies a direction-aware
// tolerance to every metric mean, which `ody_bench compare` turns into a CI
// exit code.

#ifndef SRC_HARNESS_BENCH_ARTIFACT_H_
#define SRC_HARNESS_BENCH_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/harness/campaign_runner.h"
#include "src/harness/scenario_registry.h"
#include "src/metrics/stats.h"

namespace odyssey {

// Aggregated statistics for one metric of one scenario variant.
struct MetricSummary {
  std::string scenario;
  std::string variant;
  std::string metric;
  MetricDirection direction = MetricDirection::kEither;
  SummaryStats stats;
};

// Everything BENCH_<campaign>.json records.  Deliberately excludes
// wall-clock time and worker count: the artifact describes the experiment,
// not the machine it ran on, so identical specs yield identical bytes.
struct BenchArtifact {
  static constexpr int kSchemaVersion = 1;

  int schema_version = kSchemaVersion;
  std::string campaign;
  std::string description;
  uint64_t campaign_seed = 0;
  uint64_t trials = 0;  // total executed trials
  // Summaries in plan first-appearance order (scenario, then variant, then
  // each variant's metrics in trial-report order).
  std::vector<MetricSummary> metrics;
};

// Folds |result| into summary statistics.  kInvalidArgument if any trial of
// a variant reports metric names or order different from that variant's
// first trial — the per-trial schema is part of the scenario contract.
Status AggregateCampaign(const CampaignResult& result, BenchArtifact* artifact);

// Deterministic serialization: fixed key order, one metric object per line,
// canonical number formatting, campaign_seed as a decimal string (uint64
// does not survive a round-trip through double).
std::string ArtifactToJson(const BenchArtifact& artifact);

// Parses ArtifactToJson output (or a hand-edited baseline).
// kInvalidArgument on malformed JSON, a missing field, or an unsupported
// schema version.
Status ParseArtifact(const std::string& text, BenchArtifact* artifact);

// Renders |artifact| as plain-text tables, the paper's presentation: a
// campaign line, then one table per scenario in artifact order, one row per
// variant and one column per metric (both in order of first appearance).
// Each cell is "mean (stddev)" at two decimals, or "-" where the variant
// does not report that metric.
std::string ArtifactToTables(const BenchArtifact& artifact);

// One metric's comparison verdict.
struct ComparisonRow {
  std::string scenario;
  std::string variant;
  std::string metric;
  MetricDirection direction = MetricDirection::kEither;
  double baseline_mean = 0.0;
  double current_mean = 0.0;
  double delta_pct = 0.0;  // signed change relative to the baseline mean
  bool regressed = false;
};

struct ComparisonReport {
  std::vector<ComparisonRow> rows;
  // Structural problems (campaign mismatch, metric missing from current);
  // any entry fails the comparison outright.
  std::vector<std::string> failures;

  bool HasRegression() const;
  // True when the gate passes: no structural failures and no regressed row.
  bool ok() const { return failures.empty() && !HasRegression(); }
};

// Compares every baseline metric against |current| with a direction-aware
// tolerance of |tolerance_pct| percent of the baseline mean: a
// lower-is-better mean may not rise above baseline + tolerance, a
// higher-is-better mean may not fall below baseline - tolerance, and
// kEither metrics never gate.  Metrics present only in |current| are
// ignored (adding a metric is not a regression).
ComparisonReport CompareArtifacts(const BenchArtifact& baseline, const BenchArtifact& current,
                                  double tolerance_pct);

}  // namespace odyssey

#endif  // SRC_HARNESS_BENCH_ARTIFACT_H_
