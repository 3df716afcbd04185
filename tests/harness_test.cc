// Tests for odycampaign: the scenario registry, seed derivation, campaign
// expansion, the worker pool, jobs-invariance of artifacts, the table
// renderer, the strict decimal parser, and the regression gate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/core/sync.h"
#include "src/harness/bench_artifact.h"
#include "src/harness/builtin_scenarios.h"
#include "src/harness/campaign.h"
#include "src/harness/campaign_runner.h"
#include "src/harness/decimal.h"
#include "src/harness/scenario_registry.h"
#include "src/harness/worker_pool.h"
#include "src/sim/random.h"

namespace odyssey {
namespace {

// A deterministic two-variant scenario for runner tests: cheap, but with
// metrics that depend on the seed so ordering mistakes are visible.
Scenario MakeToyScenario(const std::string& name) {
  Scenario scenario;
  scenario.name = name;
  scenario.description = "toy scenario for harness tests";
  for (const std::string variant_name : {"alpha", "beta"}) {
    const double bias = variant_name == "alpha" ? 0.0 : 1000.0;
    scenario.variants.push_back(ScenarioVariant{
        variant_name, [bias](uint64_t seed, TraceRecorder*) -> TrialMetrics {
          Rng rng(seed);
          return {
              {"latency_ms", bias + rng.Uniform(1.0, 2.0), MetricDirection::kLowerIsBetter},
              {"fidelity", rng.Uniform(0.5, 1.0), MetricDirection::kHigherIsBetter},
              {"events", static_cast<double>(1 + rng.UniformInt(100)), MetricDirection::kEither},
          };
        }});
  }
  return scenario;
}

ScenarioRegistry MakeToyRegistry() {
  ScenarioRegistry registry;
  EXPECT_TRUE(registry.Register(MakeToyScenario("toy")).ok());
  return registry;
}

CampaignSpec MakeToyCampaign(int trials = 8) {
  CampaignSpec spec;
  spec.name = "toy_campaign";
  spec.description = "toy campaign for harness tests";
  spec.seed = 42;
  spec.sweeps = {{"toy", {}, trials}};
  return spec;
}

// --- ScenarioRegistry ---

TEST(ScenarioRegistryTest, RegisterAndFind) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Register(MakeToyScenario("zeta")).ok());
  ASSERT_TRUE(registry.Register(MakeToyScenario("alpha")).ok());
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.Find("zeta"), nullptr);
  EXPECT_EQ(registry.Find("zeta")->variants.size(), 2u);
  EXPECT_EQ(registry.Find("missing"), nullptr);
  // Names come back sorted regardless of registration order.
  EXPECT_EQ(registry.scenario_names(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(ScenarioRegistryTest, RejectsInvalidScenarios) {
  ScenarioRegistry registry;
  Scenario unnamed = MakeToyScenario("");
  EXPECT_EQ(registry.Register(unnamed).code(), StatusCode::kInvalidArgument);

  Scenario empty = MakeToyScenario("empty");
  empty.variants.clear();
  EXPECT_EQ(registry.Register(empty).code(), StatusCode::kInvalidArgument);

  Scenario duplicated = MakeToyScenario("dup");
  duplicated.variants.push_back(duplicated.variants.front());
  EXPECT_EQ(registry.Register(duplicated).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(registry.Register(MakeToyScenario("taken")).ok());
  EXPECT_EQ(registry.Register(MakeToyScenario("taken")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ScenarioRegistryTest, FindVariant) {
  const Scenario scenario = MakeToyScenario("toy");
  ASSERT_NE(scenario.FindVariant("alpha"), nullptr);
  EXPECT_EQ(scenario.FindVariant("alpha")->name, "alpha");
  EXPECT_EQ(scenario.FindVariant("gamma"), nullptr);
}

TEST(ScenarioRegistryTest, BuiltinsRegisterCleanly) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(&registry);
  EXPECT_EQ(registry.size(), 15u);  // one per figure/ablation/extension + mobility pair
  for (const std::string& name : registry.scenario_names()) {
    const Scenario* scenario = registry.Find(name);
    ASSERT_NE(scenario, nullptr);
    EXPECT_FALSE(scenario->description.empty()) << name;
    EXPECT_FALSE(scenario->variants.empty()) << name;
  }
}

// --- DeriveTrialSeed ---

TEST(DeriveTrialSeedTest, MatchesSequentialSplitMixStream) {
  // The O(1) jump must agree with walking the stream: seed i is output
  // number i + 1 of the SplitMix64 sequence rooted at the campaign seed.
  for (uint64_t campaign_seed : {0ull, 1ull, 1997ull, 0xdeadbeefcafeull}) {
    SplitMix64 stream(campaign_seed);
    for (uint64_t index = 0; index < 100; ++index) {
      EXPECT_EQ(DeriveTrialSeed(campaign_seed, index), stream.Next())
          << "campaign_seed=" << campaign_seed << " index=" << index;
    }
  }
}

TEST(DeriveTrialSeedTest, DistinctAcrossIndicesAndCampaigns) {
  std::set<uint64_t> seen;
  for (uint64_t index = 0; index < 4096; ++index) {
    seen.insert(DeriveTrialSeed(1997, index));
  }
  EXPECT_EQ(seen.size(), 4096u);
  // Nearby campaign seeds must not collide over small index ranges either.
  for (uint64_t campaign_seed = 0; campaign_seed < 64; ++campaign_seed) {
    for (uint64_t index = 0; index < 64; ++index) {
      seen.insert(DeriveTrialSeed(campaign_seed, index));
    }
  }
  EXPECT_EQ(seen.size(), 4096u + 64u * 64u);
}

TEST(DeriveTrialSeedTest, GoldenValuesPinCrossPlatformStability) {
  // Fixed-width arithmetic only: these exact values must hold on every
  // platform, or committed baselines stop matching fresh runs.
  EXPECT_EQ(DeriveTrialSeed(0, 0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(DeriveTrialSeed(0, 1), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(DeriveTrialSeed(1997, 0), 0x880f66bab6e34ba9ull);
}

// --- ExpandCampaign ---

TEST(ExpandCampaignTest, FlattensSweepsInOrder) {
  const ScenarioRegistry registry = MakeToyRegistry();
  CampaignSpec spec = MakeToyCampaign(3);
  std::vector<PlannedTrial> plan;
  ASSERT_TRUE(ExpandCampaign(spec, registry, &plan).ok());
  ASSERT_EQ(plan.size(), 6u);  // 2 variants x 3 trials
  EXPECT_EQ(plan[0].variant, "alpha");
  EXPECT_EQ(plan[2].variant, "alpha");
  EXPECT_EQ(plan[3].variant, "beta");
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].trial_index, i);
    EXPECT_EQ(plan[i].seed, DeriveTrialSeed(spec.seed, i));
    EXPECT_EQ(plan[i].trial, static_cast<int>(i % 3));
  }
}

TEST(ExpandCampaignTest, RejectsUnknownNamesAndBadCounts) {
  const ScenarioRegistry registry = MakeToyRegistry();
  std::vector<PlannedTrial> plan;

  CampaignSpec unknown_scenario = MakeToyCampaign();
  unknown_scenario.sweeps[0].scenario = "missing";
  EXPECT_EQ(ExpandCampaign(unknown_scenario, registry, &plan).code(), StatusCode::kNotFound);

  CampaignSpec unknown_variant = MakeToyCampaign();
  unknown_variant.sweeps[0].variants = {"alpha", "gamma"};
  EXPECT_EQ(ExpandCampaign(unknown_variant, registry, &plan).code(), StatusCode::kNotFound);

  CampaignSpec no_trials = MakeToyCampaign(0);
  EXPECT_EQ(ExpandCampaign(no_trials, registry, &plan).code(), StatusCode::kInvalidArgument);
}

// Every campaign against the full registry: covers tier_scale, tier_fleet,
// tier_zoo and the extension sweeps as well as the figure campaigns.
TEST(ExpandCampaignTest, BuiltinCampaignsAllExpand) {
  ScenarioRegistry registry;
  RegisterAllScenarios(&registry);
  const std::vector<CampaignSpec> campaigns = AllCampaigns();
  std::vector<std::string> names;
  for (const CampaignSpec& campaign : campaigns) {
    std::vector<PlannedTrial> plan;
    const Status status = ExpandCampaign(campaign, registry, &plan);
    EXPECT_TRUE(status.ok()) << campaign.name << ": " << status.ToString();
    EXPECT_FALSE(plan.empty()) << campaign.name;
    names.push_back(campaign.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"tier1", "smoke", "agility", "apps", "ablations",
                                             "tier_mobility", "full", "tier_scale", "tier_fleet",
                                             "tier_zoo"}));
  EXPECT_NE(FindCampaign(campaigns, "tier1"), nullptr);
  EXPECT_EQ(FindCampaign(campaigns, "nope"), nullptr);
}

// The extension scenarios follow the aggregator's schema rule: one seed
// twice gives equal metrics, and two seeds give the same metric names in
// the same order (the telemetry variants included, whether or not an alert
// fires, through alert_lag_s's -1 sentinel).
TEST(ExtensionScenarioTest, DeterministicWithAFixedSchema) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(&registry);
  for (const char* name : {"ext_page_fetch", "ext_vocabulary", "ext_urban_resources",
                           "ext_telemetry"}) {
    const Scenario* scenario = registry.Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    for (const ScenarioVariant& variant : scenario->variants) {
      const TrialMetrics a = variant.run(7, nullptr);
      const TrialMetrics b = variant.run(7, nullptr);
      const TrialMetrics c = variant.run(8, nullptr);
      ASSERT_FALSE(a.empty()) << name << "/" << variant.name;
      ASSERT_EQ(a.size(), b.size()) << name << "/" << variant.name;
      ASSERT_EQ(a.size(), c.size()) << name << "/" << variant.name;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name) << name << "/" << variant.name;
        EXPECT_EQ(a[i].value, b[i].value) << name << "/" << variant.name << " " << a[i].name;
        EXPECT_EQ(a[i].name, c[i].name) << name << "/" << variant.name;
      }
    }
  }
}

// --- Worker pool ---

TEST(WorkerPoolTest, CoversEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 8}) {
    constexpr size_t kCount = 500;
    std::vector<std::atomic<int>> hits(kCount);
    RunIndexedTasks(jobs, kCount, [&hits](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(WorkerPoolTest, HandlesEdgeCounts) {
  int calls = 0;
  RunIndexedTasks(4, 0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  RunIndexedTasks(4, 1, [&calls](size_t) { ++calls; });  // runs inline
  EXPECT_EQ(calls, 1);
  EXPECT_GE(DefaultJobCount(), 1);
}

TEST(WorkerPoolTest, DestructionAbandonsUnclaimedIndices) {
  constexpr int kJobs = 4;
  constexpr size_t kCount = 1000;
  Mutex mu;
  CondVar entered_cv;
  CondVar gate_cv;
  int entered = 0;
  bool gate_open = false;
  std::atomic<size_t> ran{0};
  {
    WorkerPool pool(kJobs, kCount, [&](size_t) {
      {
        MutexLock lock(&mu);
        ++entered;
        entered_cv.NotifyAll();
        gate_cv.Wait(&mu, [&] { return gate_open; });
      }
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    // Park every worker inside its first claimed task, so 996 indices are
    // queued but unclaimed when the pool is torn down.
    {
      MutexLock lock(&mu);
      entered_cv.Wait(&mu, [&] { return entered >= kJobs; });
    }
    pool.Abandon();
    pool.Abandon();  // repeated Abandon is a documented no-op
    {
      MutexLock lock(&mu);
      gate_open = true;
      gate_cv.NotifyAll();
    }
  }  // ~WorkerPool joins the workers; unclaimed indices never run
  EXPECT_EQ(ran.load(), static_cast<size_t>(kJobs));
  EXPECT_LT(ran.load(), kCount);
}

TEST(WorkerPoolTest, JoinRethrowsFirstExceptionAndAbandonsSiblings) {
  constexpr size_t kCount = 64;
  std::atomic<size_t> ran{0};
  WorkerPool pool(4, kCount, [&ran](size_t i) {
    if (i == 3) {
      throw std::runtime_error("task failed mid-claim");
    }
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_THROW(pool.Join(), std::runtime_error);
  // The throw abandons the run: siblings finish their in-flight task and
  // stop claiming, so the failing index plus the unclaimed tail never
  // count as completed.
  EXPECT_LT(pool.completed(), kCount);
  EXPECT_EQ(pool.completed(), ran.load());
}

TEST(WorkerPoolTest, DoubleJoinIsSafe) {
  // Failure path: the first Join() rethrows, the second is a no-op (the
  // exception is consumed, not re-armed).
  WorkerPool failing(2, 8, [](size_t i) {
    if (i == 0) {
      throw std::runtime_error("boom");
    }
  });
  EXPECT_THROW(failing.Join(), std::runtime_error);
  EXPECT_NO_THROW(failing.Join());

  // Success path: repeated Join() stays a no-op and completed() is stable.
  std::atomic<size_t> ran{0};
  WorkerPool clean(2, 16, [&ran](size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_NO_THROW(clean.Join());
  EXPECT_NO_THROW(clean.Join());
  EXPECT_EQ(clean.completed(), static_cast<size_t>(16));
  EXPECT_EQ(ran.load(), static_cast<size_t>(16));
}

// --- Campaign runner and jobs invariance ---

TEST(CampaignRunnerTest, ResultsInPlanOrderWithDerivedSeeds) {
  const ScenarioRegistry registry = MakeToyRegistry();
  const CampaignSpec spec = MakeToyCampaign(4);
  CampaignResult result;
  ASSERT_TRUE(RunCampaign(spec, registry, CampaignRunOptions{}, &result).ok());
  ASSERT_EQ(result.trials.size(), 8u);
  for (size_t i = 0; i < result.trials.size(); ++i) {
    EXPECT_EQ(result.trials[i].plan.trial_index, i);
    EXPECT_EQ(result.trials[i].metrics.size(), 3u);
  }
  // beta trials carry the +1000 bias, so a slot mix-up is loud.
  EXPECT_LT(result.trials[0].metrics[0].value, 100.0);
  EXPECT_GT(result.trials[4].metrics[0].value, 900.0);
}

TEST(CampaignRunnerTest, FailsCleanlyOnBadSpec) {
  const ScenarioRegistry registry = MakeToyRegistry();
  CampaignSpec spec = MakeToyCampaign();
  spec.sweeps[0].scenario = "missing";
  CampaignResult result;
  EXPECT_EQ(RunCampaign(spec, registry, CampaignRunOptions{}, &result).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(result.trials.empty());
}

TEST(CampaignRunnerTest, ArtifactBytesAreInvariantUnderJobs) {
  const ScenarioRegistry registry = MakeToyRegistry();
  const CampaignSpec spec = MakeToyCampaign(16);
  std::string reference;
  for (int jobs : {1, 2, 4, 13}) {
    CampaignRunOptions options;
    options.jobs = jobs;
    CampaignResult result;
    ASSERT_TRUE(RunCampaign(spec, registry, options, &result).ok());
    BenchArtifact artifact;
    ASSERT_TRUE(AggregateCampaign(result, &artifact).ok());
    const std::string json = ArtifactToJson(artifact);
    if (jobs == 1) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "jobs=" << jobs << " changed the artifact bytes";
    }
  }
}

// --- Artifacts ---

BenchArtifact MakeToyArtifact() {
  const ScenarioRegistry registry = MakeToyRegistry();
  CampaignResult result;
  EXPECT_TRUE(RunCampaign(MakeToyCampaign(8), registry, CampaignRunOptions{}, &result).ok());
  BenchArtifact artifact;
  EXPECT_TRUE(AggregateCampaign(result, &artifact).ok());
  return artifact;
}

TEST(BenchArtifactTest, AggregateSummarizesPerVariantMetrics) {
  const BenchArtifact artifact = MakeToyArtifact();
  EXPECT_EQ(artifact.schema_version, BenchArtifact::kSchemaVersion);
  EXPECT_EQ(artifact.campaign, "toy_campaign");
  EXPECT_EQ(artifact.campaign_seed, 42u);
  EXPECT_EQ(artifact.trials, 16u);
  ASSERT_EQ(artifact.metrics.size(), 6u);  // 2 variants x 3 metrics
  EXPECT_EQ(artifact.metrics[0].variant, "alpha");
  EXPECT_EQ(artifact.metrics[0].metric, "latency_ms");
  EXPECT_EQ(artifact.metrics[0].direction, MetricDirection::kLowerIsBetter);
  EXPECT_EQ(artifact.metrics[0].stats.count, 8);
  EXPECT_GE(artifact.metrics[0].stats.p99, artifact.metrics[0].stats.p50);
  EXPECT_EQ(artifact.metrics[3].variant, "beta");
  EXPECT_GT(artifact.metrics[3].stats.mean, 1000.0);
}

TEST(BenchArtifactTest, AggregateRejectsInconsistentTrialMetrics) {
  CampaignResult result;
  result.spec = MakeToyCampaign();
  TrialOutcome a;
  a.plan = {"toy", "alpha", 0, 0, 1};
  a.metrics = {{"latency_ms", 1.0, MetricDirection::kLowerIsBetter}};
  TrialOutcome b = a;
  b.plan.trial = 1;
  b.metrics = {{"renamed", 1.0, MetricDirection::kLowerIsBetter}};
  result.trials = {a, b};
  BenchArtifact artifact;
  EXPECT_EQ(AggregateCampaign(result, &artifact).code(), StatusCode::kInvalidArgument);
}

TEST(BenchArtifactTest, JsonRoundTrip) {
  const BenchArtifact artifact = MakeToyArtifact();
  const std::string json = ArtifactToJson(artifact);
  BenchArtifact parsed;
  ASSERT_TRUE(ParseArtifact(json, &parsed).ok());
  EXPECT_EQ(parsed.schema_version, artifact.schema_version);
  EXPECT_EQ(parsed.campaign, artifact.campaign);
  EXPECT_EQ(parsed.description, artifact.description);
  EXPECT_EQ(parsed.campaign_seed, artifact.campaign_seed);
  EXPECT_EQ(parsed.trials, artifact.trials);
  ASSERT_EQ(parsed.metrics.size(), artifact.metrics.size());
  for (size_t i = 0; i < parsed.metrics.size(); ++i) {
    EXPECT_EQ(parsed.metrics[i].scenario, artifact.metrics[i].scenario);
    EXPECT_EQ(parsed.metrics[i].variant, artifact.metrics[i].variant);
    EXPECT_EQ(parsed.metrics[i].metric, artifact.metrics[i].metric);
    EXPECT_EQ(parsed.metrics[i].direction, artifact.metrics[i].direction);
    EXPECT_DOUBLE_EQ(parsed.metrics[i].stats.mean, artifact.metrics[i].stats.mean);
    EXPECT_DOUBLE_EQ(parsed.metrics[i].stats.p95, artifact.metrics[i].stats.p95);
  }
  // Serializing the parse reproduces the original bytes exactly.
  EXPECT_EQ(ArtifactToJson(parsed), json);
}

TEST(BenchArtifactTest, ParseRejectsGarbage) {
  BenchArtifact artifact;
  EXPECT_EQ(ParseArtifact("not json", &artifact).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseArtifact("[1, 2]", &artifact).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseArtifact("{\"campaign\": \"x\"}", &artifact).code(),
            StatusCode::kInvalidArgument);

  // A future schema version must be refused, not half-read.
  std::string wrong_version = ArtifactToJson(MakeToyArtifact());
  const size_t at = wrong_version.find("\"schema_version\": 1");
  ASSERT_NE(at, std::string::npos);
  wrong_version.replace(at, std::string("\"schema_version\": 1").size(),
                        "\"schema_version\": 2");
  EXPECT_EQ(ParseArtifact(wrong_version, &artifact).code(), StatusCode::kInvalidArgument);
}

TEST(BenchArtifactTest, TablesRenderOneRowPerVariantAndDashForMissingMetrics) {
  BenchArtifact artifact;
  artifact.campaign = "demo";
  artifact.campaign_seed = 3;
  artifact.trials = 10;
  const auto summary = [](const char* scenario, const char* variant, const char* metric,
                          double mean, double stddev) {
    MetricSummary out;
    out.scenario = scenario;
    out.variant = variant;
    out.metric = metric;
    out.stats.mean = mean;
    out.stats.stddev = stddev;
    return out;
  };
  artifact.metrics = {
      summary("first", "up", "settle_s", 0.7, 0.0),
      summary("first", "impulse", "settle_s", 1.234, 0.056),
      summary("first", "impulse", "tail_s", 4.1, 0.02),
      summary("second", "only", "drops", 189.4, 327.5),
  };
  EXPECT_EQ(ArtifactToTables(artifact),
            "campaign demo, seed 3, 10 trials\n"
            "\n"
            "first\n"
            "variant  settle_s     tail_s\n"
            "---------------------------------\n"
            "up       0.70 (0.00)  -\n"
            "impulse  1.23 (0.06)  4.10 (0.02)\n"
            "\n"
            "second\n"
            "variant  drops\n"
            "------------------------\n"
            "only     189.40 (327.50)\n");
}

// --- Decimal parsing ---

TEST(ParseDecimalU64Test, AcceptsOnlyDigitsWithinUint64) {
  struct Case {
    const char* text;
    bool ok;
    uint64_t value;
  };
  const Case cases[] = {
      {"", false, 0},
      {"-1", false, 0},
      {"+1", false, 0},
      {" 7", false, 0},
      {"7 ", false, 0},
      {"0", true, 0},
      {"18446744073709551615", true, 18446744073709551615ull},
      {"18446744073709551616", false, 0},
  };
  for (const Case& c : cases) {
    uint64_t value = 12345;
    EXPECT_EQ(ParseDecimalU64(c.text, &value), c.ok) << "\"" << c.text << "\"";
    EXPECT_EQ(value, c.ok ? c.value : 12345u) << "\"" << c.text << "\"";
  }
}

TEST(BenchArtifactTest, ParseRejectsSignedCampaignSeed) {
  std::string json = ArtifactToJson(MakeToyArtifact());
  const size_t at = json.find("\"campaign_seed\": \"42\"");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, std::string("\"campaign_seed\": \"42\"").size(), "\"campaign_seed\": \"-1\"");
  BenchArtifact artifact;
  EXPECT_EQ(ParseArtifact(json, &artifact).code(), StatusCode::kInvalidArgument);
}

// Replaces the value of the first |key| member in |json| (up to the next
// ',') with |value|.
std::string WithMember(std::string json, const std::string& key, const std::string& value) {
  const std::string label = "\"" + key + "\": ";
  const size_t at = json.find(label);
  EXPECT_NE(at, std::string::npos) << key;
  const size_t begin = at + label.size();
  json.replace(begin, json.find(',', begin) - begin, value);
  return json;
}

TEST(BenchArtifactTest, ParseRejectsCountsACastCannotHold) {
  // Each value once parsed as OK and was cast straight to the counter,
  // wrapping (-1 trials read 2^64 - 1) or overflowing the int count.
  const std::string json = ArtifactToJson(MakeToyArtifact());
  BenchArtifact artifact;
  for (const char* bad : {"-1", "1.5", "1e999", "18446744073709551616"}) {
    EXPECT_EQ(ParseArtifact(WithMember(json, "trials", bad), &artifact).code(),
              StatusCode::kInvalidArgument)
        << "trials " << bad;
  }
  for (const char* bad : {"-1", "2.5", "1e12", "2147483648", "-1e999"}) {
    EXPECT_EQ(ParseArtifact(WithMember(json, "count", bad), &artifact).code(),
              StatusCode::kInvalidArgument)
        << "count " << bad;
  }
  // The extremes a cast can hold still parse.
  ASSERT_TRUE(ParseArtifact(WithMember(json, "count", "2147483647"), &artifact).ok());
  EXPECT_EQ(artifact.metrics.front().stats.count, 2147483647);
  ASSERT_TRUE(ParseArtifact(WithMember(json, "trials", "0"), &artifact).ok());
  EXPECT_EQ(artifact.trials, 0u);
}

// --- The regression gate ---

TEST(CompareArtifactsTest, IdenticalArtifactsPass) {
  const BenchArtifact artifact = MakeToyArtifact();
  const ComparisonReport report = CompareArtifacts(artifact, artifact, 5.0);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.HasRegression());
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(report.rows.size(), artifact.metrics.size());
}

TEST(CompareArtifactsTest, SyntheticRegressionFailsTheGate) {
  // The CI contract: against a baseline whose lower-is-better mean was
  // recorded 20% below today's value, compare must fail the build.
  const BenchArtifact current = MakeToyArtifact();
  BenchArtifact regressed_baseline = current;
  for (MetricSummary& summary : regressed_baseline.metrics) {
    if (summary.direction == MetricDirection::kLowerIsBetter) {
      summary.stats.mean *= 0.8;
    }
  }
  const ComparisonReport report = CompareArtifacts(regressed_baseline, current, 5.0);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRegression());
  int regressed = 0;
  for (const ComparisonRow& row : report.rows) {
    if (row.regressed) {
      ++regressed;
      EXPECT_EQ(row.direction, MetricDirection::kLowerIsBetter);
      EXPECT_GT(row.delta_pct, 5.0);
    }
  }
  EXPECT_EQ(regressed, 2);  // latency_ms for both variants
}

TEST(CompareArtifactsTest, DirectionAwareGating) {
  const BenchArtifact baseline = MakeToyArtifact();

  // Fidelity (higher-is-better) dropping beyond tolerance regresses...
  BenchArtifact worse = baseline;
  for (MetricSummary& summary : worse.metrics) {
    if (summary.direction == MetricDirection::kHigherIsBetter) {
      summary.stats.mean *= 0.9;
    }
  }
  EXPECT_TRUE(CompareArtifacts(baseline, worse, 5.0).HasRegression());
  // ...but the same drop passes a looser tolerance.
  EXPECT_FALSE(CompareArtifacts(baseline, worse, 15.0).HasRegression());

  // Improvements never regress: lower latency and higher fidelity pass 0%.
  BenchArtifact better = baseline;
  for (MetricSummary& summary : better.metrics) {
    if (summary.direction == MetricDirection::kLowerIsBetter) {
      summary.stats.mean *= 0.5;
    } else if (summary.direction == MetricDirection::kHigherIsBetter) {
      summary.stats.mean *= 1.5;
    }
  }
  EXPECT_FALSE(CompareArtifacts(baseline, better, 0.0).HasRegression());

  // kEither metrics never gate, no matter how far they move.
  BenchArtifact wild = baseline;
  for (MetricSummary& summary : wild.metrics) {
    if (summary.direction == MetricDirection::kEither) {
      summary.stats.mean *= 100.0;
    }
  }
  EXPECT_FALSE(CompareArtifacts(baseline, wild, 0.0).HasRegression());
}

TEST(CompareArtifactsTest, StructuralMismatchesAreFailures) {
  const BenchArtifact baseline = MakeToyArtifact();

  BenchArtifact renamed = baseline;
  renamed.campaign = "other";
  EXPECT_FALSE(CompareArtifacts(baseline, renamed, 5.0).ok());

  BenchArtifact reseeded = baseline;
  reseeded.campaign_seed = 7;
  EXPECT_FALSE(CompareArtifacts(baseline, reseeded, 5.0).ok());

  // A metric that vanished from the current run fails even if everything
  // still present matches.
  BenchArtifact pruned = baseline;
  pruned.metrics.pop_back();
  EXPECT_FALSE(CompareArtifacts(baseline, pruned, 5.0).ok());
  // The reverse — current grew a metric — is fine.
  EXPECT_TRUE(CompareArtifacts(pruned, baseline, 5.0).ok());
}

}  // namespace
}  // namespace odyssey
