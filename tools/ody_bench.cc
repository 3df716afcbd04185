// ody_bench: run experiment campaigns and gate on their artifacts.
//
// Usage:
//   ody_bench list
//       show every built-in campaign and registered scenario
//   ody_bench run --campaign=<name> [--jobs=N] [--seed=U64] [--out=PATH]
//                 [--trials-cap=N] [--trace-out=PATH]
//       execute the campaign and write BENCH_<name>.json (or PATH);
//       --trials-cap caps every sweep's trial count (the TSan CI job runs a
//       reduced tier1 this way — capped artifacts are never baselines);
//       --trace-out writes a chrome://tracing JSON of the campaign's first
//       planned trial
//   ody_bench table --artifact=PATH
//       print the artifact as one mean (stddev) table per scenario
//   ody_bench compare --baseline=A.json --current=B.json [--tolerance=PCT]
//       exit 0 iff no gated metric mean regressed beyond the tolerance
//
// The artifact and trace bytes are a pure function of (campaign, seed):
// --jobs only changes wall-clock time, never output — CI byte-diffs
// --jobs=1 against --jobs=4 to hold the runner to that.  Wall-clock time is
// printed here but deliberately never written into the artifact.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/harness/bench_artifact.h"
#include "src/harness/campaign.h"
#include "src/harness/campaign_runner.h"
#include "src/harness/decimal.h"
#include "src/harness/scenario_registry.h"
#include "src/harness/worker_pool.h"
#include "src/trace/trace_session.h"

namespace {

using odyssey::BenchArtifact;
using odyssey::CampaignResult;
using odyssey::CampaignRunOptions;
using odyssey::CampaignSpec;
using odyssey::FlagValue;
using odyssey::ComparisonReport;
using odyssey::ComparisonRow;
using odyssey::MetricDirection;
using odyssey::MetricDirectionName;
using odyssey::ParseDecimalU64;
using odyssey::Scenario;
using odyssey::ScenarioRegistry;
using odyssey::Status;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "ody_bench: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteOrWarn(const std::string& path, const std::string& text) {
  if (odyssey::WriteFile(path, text)) {
    return true;
  }
  std::cerr << "ody_bench: cannot write " << path << "\n";
  return false;
}

int ListCommand() {
  std::cout << "campaigns:\n";
  for (const CampaignSpec& campaign : odyssey::AllCampaigns()) {
    std::cout << "  " << campaign.name << " - " << campaign.description << "\n";
  }
  ScenarioRegistry registry;
  odyssey::RegisterAllScenarios(&registry);
  std::cout << "scenarios:\n";
  for (const std::string& name : registry.scenario_names()) {
    const Scenario* scenario = registry.Find(name);
    std::cout << "  " << name << " - " << scenario->description << " ("
              << scenario->variants.size() << " variants:";
    for (const odyssey::ScenarioVariant& variant : scenario->variants) {
      std::cout << " " << variant.name;
    }
    std::cout << ")\n";
  }
  return 0;
}

// Writes a copy of |artifact| with every machine-dependent wall_* metric
// removed.  The tier_scale trials report wall-clock rates, which are real
// measurements but not jobs-invariant; CI byte-compares the stripped
// artifacts to keep holding the runner to determinism.
bool WriteStrippedArtifact(const BenchArtifact& artifact, const std::string& path) {
  BenchArtifact stripped = artifact;
  std::erase_if(stripped.metrics, [](const odyssey::MetricSummary& summary) {
    return summary.metric.rfind("wall_", 0) == 0;
  });
  return WriteOrWarn(path, ArtifactToJson(stripped));
}

int RunCommand(const std::vector<std::string>& args) {
  std::string campaign_name;
  std::string out_path;
  std::string strip_path;
  std::string trace_path;
  int jobs = odyssey::DefaultJobCount();
  uint64_t seed = 0;
  bool seed_set = false;
  int trials_cap = 0;  // 0 = unset (run the campaign's full trial counts)
  for (const std::string& arg : args) {
    std::string value;
    if (FlagValue(arg, "campaign", &value)) {
      campaign_name = value;
    } else if (FlagValue(arg, "strip-wall-out", &value)) {
      strip_path = value;
    } else if (FlagValue(arg, "trace-out", &value)) {
      trace_path = value;
    } else if (FlagValue(arg, "trials-cap", &value)) {
      uint64_t parsed = 0;
      if (!ParseDecimalU64(value, &parsed) || parsed == 0 || parsed > 100000) {
        std::cerr << "ody_bench: --trials-cap must be an integer in [1, 100000]\n";
        return 2;
      }
      trials_cap = static_cast<int>(parsed);
    } else if (FlagValue(arg, "jobs", &value)) {
      uint64_t parsed = 0;
      if (!ParseDecimalU64(value, &parsed) || parsed == 0 || parsed > 1024) {
        std::cerr << "ody_bench: --jobs must be an integer in [1, 1024]\n";
        return 2;
      }
      jobs = static_cast<int>(parsed);
    } else if (FlagValue(arg, "seed", &value)) {
      if (!ParseDecimalU64(value, &seed)) {
        std::cerr << "ody_bench: --seed must be a decimal uint64\n";
        return 2;
      }
      seed_set = true;
    } else if (FlagValue(arg, "out", &value)) {
      out_path = value;
    } else {
      std::cerr << "ody_bench: unknown run flag " << arg << "\n";
      return 2;
    }
  }
  if (campaign_name.empty()) {
    std::cerr << "ody_bench: run requires --campaign=<name> (see `ody_bench list`)\n";
    return 2;
  }

  const std::vector<CampaignSpec> campaigns = odyssey::AllCampaigns();
  const CampaignSpec* found = odyssey::FindCampaign(campaigns, campaign_name);
  if (found == nullptr) {
    std::cerr << "ody_bench: unknown campaign " << campaign_name << "\n";
    return 2;
  }
  CampaignSpec spec = *found;
  if (seed_set) {
    spec.seed = seed;
  }
  if (trials_cap > 0) {
    // Reduced campaign for the slow instrumented gates (the TSan CI job):
    // same sweeps, same seed derivation, just fewer trials per variant.
    // Capped artifacts are for exercising the runner, not for baselines —
    // never feed one to `ody_bench compare`.
    for (odyssey::SweepSpec& sweep : spec.sweeps) {
      sweep.trials = std::min(sweep.trials, trials_cap);
    }
  }
  if (out_path.empty()) {
    out_path = "BENCH_" + spec.name + ".json";
  }

  ScenarioRegistry registry;
  odyssey::RegisterAllScenarios(&registry);

  // The trace covers plan index 0 only, so its bytes do not depend on
  // --jobs (see CampaignRunOptions::trace).
  odyssey::TraceSession trace(trace_path);
  CampaignRunOptions options;
  options.jobs = jobs;
  options.trace = trace.recorder();
  CampaignResult result;
  const auto start = std::chrono::steady_clock::now();
  if (const Status status = RunCampaign(spec, registry, options, &result); !status.ok()) {
    std::cerr << "ody_bench: " << status.ToString() << "\n";
    return 2;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  BenchArtifact artifact;
  if (const Status status = AggregateCampaign(result, &artifact); !status.ok()) {
    std::cerr << "ody_bench: " << status.ToString() << "\n";
    return 2;
  }
  if (!WriteOrWarn(out_path, ArtifactToJson(artifact))) {
    return 2;
  }
  if (!strip_path.empty() && !WriteStrippedArtifact(artifact, strip_path)) {
    return 2;
  }
  if (!trace.ExportOrWarn()) {
    return 2;
  }
  // Wall-clock time goes to the console (CI logs the speedup from it), not
  // into the artifact, which must not depend on the machine or job count.
  std::printf("campaign %s: %llu trials, %zu metric summaries, jobs=%d, %.3f s wall\n",
              spec.name.c_str(), static_cast<unsigned long long>(artifact.trials),
              artifact.metrics.size(), jobs, elapsed.count());
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// Reads and parses the artifact at |path|; reports failures on stderr.
bool LoadArtifact(const std::string& path, BenchArtifact* artifact) {
  std::string text;
  if (!ReadFile(path, &text)) {
    return false;
  }
  if (const Status status = ParseArtifact(text, artifact); !status.ok()) {
    std::cerr << "ody_bench: " << path << ": " << status.ToString() << "\n";
    return false;
  }
  return true;
}

int TableCommand(const std::vector<std::string>& args) {
  std::string artifact_path;
  for (const std::string& arg : args) {
    if (!FlagValue(arg, "artifact", &artifact_path)) {
      std::cerr << "ody_bench: unknown table flag " << arg << "\n";
      return 2;
    }
  }
  if (artifact_path.empty()) {
    std::cerr << "ody_bench: table requires --artifact=<json>\n";
    return 2;
  }
  BenchArtifact artifact;
  if (!LoadArtifact(artifact_path, &artifact)) {
    return 2;
  }
  std::cout << odyssey::ArtifactToTables(artifact);
  return 0;
}

int CompareCommand(const std::vector<std::string>& args) {
  std::string baseline_path;
  std::string current_path;
  double tolerance_pct = 5.0;
  for (const std::string& arg : args) {
    std::string value;
    if (FlagValue(arg, "baseline", &value)) {
      baseline_path = value;
    } else if (FlagValue(arg, "current", &value)) {
      current_path = value;
    } else if (FlagValue(arg, "tolerance", &value)) {
      char* end = nullptr;
      tolerance_pct = std::strtod(value.c_str(), &end);
      // A NaN or infinite allowance would pass every row: `delta >
      // allowance` is false for all of them.
      if (value.empty() || end != value.c_str() + value.size() ||
          !std::isfinite(tolerance_pct) || tolerance_pct < 0.0) {
        std::cerr << "ody_bench: --tolerance must be a finite non-negative percentage\n";
        return 2;
      }
    } else {
      std::cerr << "ody_bench: unknown compare flag " << arg << "\n";
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::cerr << "ody_bench: compare requires --baseline=<json> and --current=<json>\n";
    return 2;
  }

  BenchArtifact baseline;
  BenchArtifact current;
  if (!LoadArtifact(baseline_path, &baseline) || !LoadArtifact(current_path, &current)) {
    return 2;
  }

  const ComparisonReport report = odyssey::CompareArtifacts(baseline, current, tolerance_pct);
  for (const std::string& failure : report.failures) {
    std::cout << "FAIL  " << failure << "\n";
  }
  int regressions = 0;
  for (const ComparisonRow& row : report.rows) {
    if (row.regressed) {
      ++regressions;
    }
    // Print regressions always; healthy rows only when they moved at all.
    if (row.regressed || row.delta_pct != 0.0) {
      std::printf("%s  %s/%s/%s (%s): baseline %.6g, current %.6g (%+.2f%%)\n",
                  row.regressed ? "REGRESSED" : "ok       ", row.scenario.c_str(),
                  row.variant.c_str(), row.metric.c_str(), MetricDirectionName(row.direction),
                  row.baseline_mean, row.current_mean, row.delta_pct);
    }
  }
  std::printf("compared %zu metrics at tolerance %.2f%%: %d regressed, %zu structural failures\n",
              report.rows.size(), tolerance_pct, regressions, report.failures.size());
  return report.ok() ? 0 : 1;
}

int Usage() {
  std::cerr << "usage:\n"
            << "  ody_bench list\n"
            << "  ody_bench run --campaign=<name> [--jobs=N] [--seed=U64] [--out=PATH]\n"
            << "                [--strip-wall-out=PATH] [--trials-cap=N] [--trace-out=PATH]\n"
            << "  ody_bench table --artifact=<json>\n"
            << "  ody_bench compare --baseline=<json> --current=<json> [--tolerance=PCT]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "list" && args.empty()) {
    return ListCommand();
  }
  if (command == "run") {
    return RunCommand(args);
  }
  if (command == "table") {
    return TableCommand(args);
  }
  if (command == "compare") {
    return CompareCommand(args);
  }
  return Usage();
}
