// The scenario registry: every figure and ablation as a named, enumerable
// experiment.
//
// A Scenario is a family of single-trial experiment bodies (its variants:
// one per cell of the figure's grid — a waveform, a strategy, a fidelity
// level).  Each variant's run function is shared-nothing: it builds its own
// Simulation from the seed it is handed and returns its TrialMetrics rows
// directly, so the campaign runner may execute any set of variant trials
// concurrently and the result depends only on the seeds, never on
// scheduling.  Every family keeps its bodies file-local next to its one
// Register* function; no family exports a trial body.
//
// The registry is an ordinary value type, not a singleton: the ody_bench
// CLI and the tests each build one and populate it with
// RegisterAllScenarios (src/catalog/catalog.h) or one family's Register*
// function such as RegisterBuiltinScenarios (builtin_scenarios.h), keeping
// the harness free of global mutable state.

#ifndef SRC_HARNESS_SCENARIO_REGISTRY_H_
#define SRC_HARNESS_SCENARIO_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/status.h"

namespace odyssey {

class TraceRecorder;

// How a metric's mean should be read by the regression gate.
enum class MetricDirection {
  kLowerIsBetter,   // latency, drops, settling time
  kHigherIsBetter,  // fidelity, goal-met percentage
  kEither,          // informational; never gates
};

// Stable short name ("lower", "higher", "either") used in artifacts.
const char* MetricDirectionName(MetricDirection direction);
// Inverse of MetricDirectionName; false if |name| is not a direction.
bool ParseMetricDirection(const std::string& name, MetricDirection* out);

// One measured value from one trial.
struct MetricValue {
  std::string name;
  double value = 0.0;
  MetricDirection direction = MetricDirection::kEither;
};

// Everything a trial reports.  Metric names and order must be identical
// across every trial of a variant (the aggregator checks).
using TrialMetrics = std::vector<MetricValue>;

// A single-trial experiment body.  |seed| fully determines the result;
// |trace| is null except for the one designated traced trial of a run.
using TrialFn = std::function<TrialMetrics(uint64_t seed, TraceRecorder* trace)>;

struct ScenarioVariant {
  std::string name;  // e.g. "step_up", "odyssey", "jpeg50_impulse_down"
  TrialFn run;
};

struct Scenario {
  std::string name;         // e.g. "fig10_video"
  std::string description;  // one line, shown by `ody_bench list`
  std::vector<ScenarioVariant> variants;

  // Variant lookup by name; null when absent.
  const ScenarioVariant* FindVariant(const std::string& variant_name) const;
};

class ScenarioRegistry {
 public:
  ScenarioRegistry() = default;

  // Adds |scenario|.  kInvalidArgument for an empty name, no variants, or a
  // duplicate variant name; kAlreadyExists if the scenario name is taken.
  Status Register(Scenario scenario);

  // Scenario lookup by name; null when absent.
  const Scenario* Find(const std::string& name) const;

  // Registered scenario names, sorted.
  std::vector<std::string> scenario_names() const;

  size_t size() const { return scenarios_.size(); }

 private:
  std::map<std::string, Scenario> scenarios_;
};

}  // namespace odyssey

#endif  // SRC_HARNESS_SCENARIO_REGISTRY_H_
