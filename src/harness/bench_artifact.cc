#include "src/harness/bench_artifact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "src/harness/decimal.h"
#include "src/metrics/table.h"
#include "src/trace/trace_json.h"

namespace odyssey {
namespace {

// Key for grouping trials and for matching metrics across two artifacts.
std::string MetricKey(const std::string& scenario, const std::string& variant,
                      const std::string& metric) {
  return scenario + "/" + variant + "/" + metric;
}

void AppendStat(std::string* out, const char* name, double value, bool last = false) {
  out->append("\"");
  out->append(name);
  out->append("\": ");
  out->append(JsonNumberToString(value));
  if (!last) {
    out->append(", ");
  }
}

// Reads a required member of |object|, accumulating a description of the
// first problem into |error|.
const JsonValue* RequireMember(const JsonValue& object, const std::string& key,
                               JsonValue::Kind kind, const char* where, std::string* error) {
  if (!error->empty()) {
    return nullptr;
  }
  const JsonValue* member = object.Find(key);
  if (member == nullptr || member->kind() != kind) {
    *error = std::string(where) + " is missing or mistyped member \"" + key + "\"";
    return nullptr;
  }
  return member;
}

// True when |value| is a whole number in [0, |limit|): exactly what a cast
// to a counter of that range can hold (casting anything else is undefined).
bool IsCount(double value, double limit) {
  return value >= 0.0 && value < limit && std::trunc(value) == value;
}

}  // namespace

bool ComparisonReport::HasRegression() const {
  for (const ComparisonRow& row : rows) {
    if (row.regressed) {
      return true;
    }
  }
  return false;
}

Status AggregateCampaign(const CampaignResult& result, BenchArtifact* artifact) {
  artifact->schema_version = BenchArtifact::kSchemaVersion;
  artifact->campaign = result.spec.name;
  artifact->description = result.spec.description;
  artifact->campaign_seed = result.spec.seed;
  artifact->trials = result.trials.size();
  artifact->metrics.clear();

  // Group trials by variant in plan first-appearance order, checking that
  // every trial of a variant reports the same metrics in the same order as
  // the variant's first trial.
  struct VariantSamples {
    const TrialOutcome* first = nullptr;              // defines the metric schema
    std::vector<std::vector<double>> metric_samples;  // one vector per metric
  };
  std::vector<std::string> variant_order;
  std::map<std::string, VariantSamples> by_variant;
  for (const TrialOutcome& outcome : result.trials) {
    const std::string key = outcome.plan.scenario + "/" + outcome.plan.variant;
    auto [it, inserted] = by_variant.try_emplace(key);
    VariantSamples& samples = it->second;
    if (inserted) {
      variant_order.push_back(key);
      samples.first = &outcome;
      samples.metric_samples.resize(outcome.metrics.size());
    } else {
      const TrialMetrics& schema = samples.first->metrics;
      if (outcome.metrics.size() != schema.size()) {
        return InvalidArgumentError("variant " + key +
                                    " reported a different metric count across trials");
      }
      for (size_t m = 0; m < schema.size(); ++m) {
        if (outcome.metrics[m].name != schema[m].name ||
            outcome.metrics[m].direction != schema[m].direction) {
          return InvalidArgumentError("variant " + key + " reported metric " +
                                      outcome.metrics[m].name + " where trial 0 reported " +
                                      schema[m].name);
        }
      }
    }
    for (size_t m = 0; m < outcome.metrics.size(); ++m) {
      samples.metric_samples[m].push_back(outcome.metrics[m].value);
    }
  }

  for (const std::string& key : variant_order) {
    const VariantSamples& samples = by_variant.at(key);
    const TrialOutcome& first = *samples.first;
    for (size_t m = 0; m < first.metrics.size(); ++m) {
      MetricSummary summary;
      summary.scenario = first.plan.scenario;
      summary.variant = first.plan.variant;
      summary.metric = first.metrics[m].name;
      summary.direction = first.metrics[m].direction;
      summary.stats = Summarize(samples.metric_samples[m]);
      artifact->metrics.push_back(std::move(summary));
    }
  }
  return OkStatus();
}

std::string ArtifactToJson(const BenchArtifact& artifact) {
  std::string out;
  out.append("{\n");
  out.append("  \"schema_version\": " + JsonNumberToString(artifact.schema_version) + ",\n");
  out.append("  \"campaign\": " + JsonQuote(artifact.campaign) + ",\n");
  out.append("  \"description\": " + JsonQuote(artifact.description) + ",\n");
  out.append("  \"campaign_seed\": " + JsonQuote(std::to_string(artifact.campaign_seed)) +
             ",\n");
  out.append("  \"trials\": " + JsonNumberToString(static_cast<double>(artifact.trials)) +
             ",\n");
  out.append("  \"metrics\": [");
  for (size_t i = 0; i < artifact.metrics.size(); ++i) {
    const MetricSummary& m = artifact.metrics[i];
    out.append(i == 0 ? "\n" : ",\n");
    out.append("    {");
    out.append("\"scenario\": " + JsonQuote(m.scenario) + ", ");
    out.append("\"variant\": " + JsonQuote(m.variant) + ", ");
    out.append("\"metric\": " + JsonQuote(m.metric) + ", ");
    out.append("\"direction\": " + JsonQuote(MetricDirectionName(m.direction)) + ", ");
    out.append("\"count\": " + JsonNumberToString(m.stats.count) + ", ");
    AppendStat(&out, "mean", m.stats.mean);
    AppendStat(&out, "stddev", m.stats.stddev);
    AppendStat(&out, "min", m.stats.min);
    AppendStat(&out, "max", m.stats.max);
    AppendStat(&out, "p50", m.stats.p50);
    AppendStat(&out, "p95", m.stats.p95);
    AppendStat(&out, "p99", m.stats.p99, /*last=*/true);
    out.append("}");
  }
  out.append(artifact.metrics.empty() ? "],\n" : "\n  ],\n");
  out.append("  \"generator\": \"ody_bench\"\n");
  out.append("}\n");
  return out;
}

Status ParseArtifact(const std::string& text, BenchArtifact* artifact) {
  std::string error;
  const JsonValue root = ParseJson(text, &error);
  if (!error.empty()) {
    return InvalidArgumentError("artifact is not valid JSON: " + error);
  }
  if (!root.is_object()) {
    return InvalidArgumentError("artifact root is not an object");
  }

  const JsonValue* version =
      RequireMember(root, "schema_version", JsonValue::Kind::kNumber, "artifact", &error);
  const JsonValue* campaign =
      RequireMember(root, "campaign", JsonValue::Kind::kString, "artifact", &error);
  const JsonValue* description =
      RequireMember(root, "description", JsonValue::Kind::kString, "artifact", &error);
  const JsonValue* seed =
      RequireMember(root, "campaign_seed", JsonValue::Kind::kString, "artifact", &error);
  const JsonValue* trials =
      RequireMember(root, "trials", JsonValue::Kind::kNumber, "artifact", &error);
  const JsonValue* metrics =
      RequireMember(root, "metrics", JsonValue::Kind::kArray, "artifact", &error);
  if (!error.empty()) {
    return InvalidArgumentError(error);
  }
  if (version->number_value() != BenchArtifact::kSchemaVersion) {
    return InvalidArgumentError("artifact schema_version " +
                                JsonNumberToString(version->number_value()) +
                                " is not the supported version " +
                                JsonNumberToString(BenchArtifact::kSchemaVersion));
  }

  artifact->schema_version = BenchArtifact::kSchemaVersion;
  artifact->campaign = campaign->string_value();
  artifact->description = description->string_value();
  const std::string& seed_text = seed->string_value();
  if (!ParseDecimalU64(seed_text, &artifact->campaign_seed)) {
    return InvalidArgumentError("artifact campaign_seed \"" + seed_text +
                                "\" is not a decimal uint64");
  }
  if (!IsCount(trials->number_value(), 0x1p64)) {
    return InvalidArgumentError("artifact trials " + JsonNumberToString(trials->number_value()) +
                                " is not a whole number in [0, 2^64)");
  }
  artifact->trials = static_cast<uint64_t>(trials->number_value());

  artifact->metrics.clear();
  for (const JsonValue& entry : metrics->array_items()) {
    if (!entry.is_object()) {
      return InvalidArgumentError("artifact metrics entry is not an object");
    }
    const JsonValue* scenario =
        RequireMember(entry, "scenario", JsonValue::Kind::kString, "metric", &error);
    const JsonValue* variant =
        RequireMember(entry, "variant", JsonValue::Kind::kString, "metric", &error);
    const JsonValue* metric =
        RequireMember(entry, "metric", JsonValue::Kind::kString, "metric", &error);
    const JsonValue* direction =
        RequireMember(entry, "direction", JsonValue::Kind::kString, "metric", &error);
    const JsonValue* count =
        RequireMember(entry, "count", JsonValue::Kind::kNumber, "metric", &error);
    const JsonValue* mean =
        RequireMember(entry, "mean", JsonValue::Kind::kNumber, "metric", &error);
    const JsonValue* stddev =
        RequireMember(entry, "stddev", JsonValue::Kind::kNumber, "metric", &error);
    const JsonValue* min =
        RequireMember(entry, "min", JsonValue::Kind::kNumber, "metric", &error);
    const JsonValue* max =
        RequireMember(entry, "max", JsonValue::Kind::kNumber, "metric", &error);
    const JsonValue* p50 =
        RequireMember(entry, "p50", JsonValue::Kind::kNumber, "metric", &error);
    const JsonValue* p95 =
        RequireMember(entry, "p95", JsonValue::Kind::kNumber, "metric", &error);
    const JsonValue* p99 =
        RequireMember(entry, "p99", JsonValue::Kind::kNumber, "metric", &error);
    if (!error.empty()) {
      return InvalidArgumentError(error);
    }
    MetricSummary summary;
    summary.scenario = scenario->string_value();
    summary.variant = variant->string_value();
    summary.metric = metric->string_value();
    if (!ParseMetricDirection(direction->string_value(), &summary.direction)) {
      return InvalidArgumentError("metric " +
                                  MetricKey(summary.scenario, summary.variant, summary.metric) +
                                  " has unknown direction \"" + direction->string_value() +
                                  "\"");
    }
    if (!IsCount(count->number_value(), 0x1p31)) {
      return InvalidArgumentError(
          "metric " + MetricKey(summary.scenario, summary.variant, summary.metric) + " count " +
          JsonNumberToString(count->number_value()) + " is not a whole number in [0, 2^31)");
    }
    summary.stats.count = static_cast<int>(count->number_value());
    summary.stats.mean = mean->number_value();
    summary.stats.stddev = stddev->number_value();
    summary.stats.min = min->number_value();
    summary.stats.max = max->number_value();
    summary.stats.p50 = p50->number_value();
    summary.stats.p95 = p95->number_value();
    summary.stats.p99 = p99->number_value();
    artifact->metrics.push_back(std::move(summary));
  }
  return OkStatus();
}

std::string ArtifactToTables(const BenchArtifact& artifact) {
  struct ScenarioTable {
    std::string scenario;
    std::vector<std::string> variants;
    std::vector<std::string> metrics;
    std::map<std::pair<std::string, std::string>, std::string> cells;  // (variant, metric)
  };
  const auto append_once = [](std::vector<std::string>* names, const std::string& name) {
    if (std::find(names->begin(), names->end(), name) == names->end()) {
      names->push_back(name);
    }
  };
  std::vector<ScenarioTable> tables;
  for (const MetricSummary& summary : artifact.metrics) {
    auto table = std::find_if(tables.begin(), tables.end(), [&](const ScenarioTable& t) {
      return t.scenario == summary.scenario;
    });
    if (table == tables.end()) {
      table = tables.insert(tables.end(), ScenarioTable{summary.scenario, {}, {}, {}});
    }
    append_once(&table->variants, summary.variant);
    append_once(&table->metrics, summary.metric);
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%.2f (%.2f)", summary.stats.mean, summary.stats.stddev);
    table->cells[{summary.variant, summary.metric}] = cell;
  }

  std::ostringstream out;
  out << "campaign " << artifact.campaign << ", seed " << artifact.campaign_seed << ", "
      << artifact.trials << " trials\n";
  for (const ScenarioTable& scenario : tables) {
    std::vector<std::string> header = {"variant"};
    header.insert(header.end(), scenario.metrics.begin(), scenario.metrics.end());
    Table table(std::move(header));
    for (const std::string& variant : scenario.variants) {
      std::vector<std::string> row = {variant};
      for (const std::string& metric : scenario.metrics) {
        const auto cell = scenario.cells.find({variant, metric});
        row.push_back(cell == scenario.cells.end() ? "-" : cell->second);
      }
      table.AddRow(std::move(row));
    }
    out << "\n" << scenario.scenario << "\n";
    table.Print(out);
  }
  return out.str();
}

ComparisonReport CompareArtifacts(const BenchArtifact& baseline, const BenchArtifact& current,
                                  double tolerance_pct) {
  ComparisonReport report;
  if (baseline.campaign != current.campaign) {
    report.failures.push_back("campaign mismatch: baseline is \"" + baseline.campaign +
                              "\", current is \"" + current.campaign + "\"");
  }
  if (baseline.campaign_seed != current.campaign_seed) {
    report.failures.push_back("campaign_seed mismatch: baseline used " +
                              std::to_string(baseline.campaign_seed) + ", current used " +
                              std::to_string(current.campaign_seed));
  }

  std::map<std::string, const MetricSummary*> current_by_key;
  for (const MetricSummary& summary : current.metrics) {
    current_by_key[MetricKey(summary.scenario, summary.variant, summary.metric)] = &summary;
  }

  for (const MetricSummary& base : baseline.metrics) {
    const std::string key = MetricKey(base.scenario, base.variant, base.metric);
    auto it = current_by_key.find(key);
    if (it == current_by_key.end()) {
      report.failures.push_back("metric " + key + " is in the baseline but not the current run");
      continue;
    }
    const MetricSummary& cur = *it->second;
    if (cur.direction != base.direction) {
      report.failures.push_back("metric " + key + " changed direction (baseline " +
                                MetricDirectionName(base.direction) + ", current " +
                                MetricDirectionName(cur.direction) + ")");
      continue;
    }
    ComparisonRow row;
    row.scenario = base.scenario;
    row.variant = base.variant;
    row.metric = base.metric;
    row.direction = base.direction;
    row.baseline_mean = base.stats.mean;
    row.current_mean = cur.stats.mean;
    const double delta = cur.stats.mean - base.stats.mean;
    const double scale = std::abs(base.stats.mean);
    // Exact zero is deliberate: identical artifacts (the common CI case)
    // must report a delta of exactly 0%, never a rounded near-zero.
    // ody-lint: allow(float-equal)
    row.delta_pct = scale > 0.0 ? 100.0 * delta / scale : (delta == 0.0 ? 0.0 : 100.0);
    // The allowance is relative to the baseline mean, with a tiny absolute
    // floor so a zero baseline does not demand bit-exact equality.
    const double allowance = scale * tolerance_pct / 100.0 + 1e-12;
    switch (base.direction) {
      case MetricDirection::kLowerIsBetter:
        row.regressed = delta > allowance;
        break;
      case MetricDirection::kHigherIsBetter:
        row.regressed = -delta > allowance;
        break;
      case MetricDirection::kEither:
        row.regressed = false;
        break;
    }
    report.rows.push_back(row);
  }
  return report;
}

}  // namespace odyssey
