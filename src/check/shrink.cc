#include "src/check/shrink.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "src/trace/chrome_trace_exporter.h"
#include "src/trace/trace_diff.h"
#include "src/trace/trace_recorder.h"

namespace odyssey {
namespace {

// One shrink attempt bookkeeping: runs the predicate unless the attempt
// budget is exhausted, and accepts the candidate on success.
struct Search {
  const ScenarioPredicate& still_fails;
  int max_attempts;
  int attempts = 0;
  int accepted = 0;

  bool Try(FuzzScenario* current, FuzzScenario candidate) {
    if (attempts >= max_attempts) {
      return false;
    }
    ++attempts;
    if (!still_fails(candidate)) {
      return false;
    }
    ++accepted;
    *current = std::move(candidate);
    return true;
  }
};

// Each pass tries every single-step reduction once, greedily keeping the
// ones that preserve the failure.  Returns whether anything was accepted.
bool ShrinkPass(FuzzScenario* current, Search* search) {
  bool changed = false;

  // Drop whole applications, highest index first so accepted removals do
  // not invalidate the remaining candidates.
  for (size_t i = current->apps.size(); i-- > 0;) {
    FuzzScenario candidate = *current;
    candidate.apps.erase(candidate.apps.begin() + static_cast<ptrdiff_t>(i));
    changed |= search->Try(current, std::move(candidate));
  }

  // Drop individual operations.
  for (size_t i = current->apps.size(); i-- > 0;) {
    for (size_t j = current->apps[i].ops.size(); j-- > 0;) {
      FuzzScenario candidate = *current;
      candidate.apps[i].ops.erase(candidate.apps[i].ops.begin() + static_cast<ptrdiff_t>(j));
      changed |= search->Try(current, std::move(candidate));
    }
  }

  // Drop faults.
  for (size_t i = current->faults.size(); i-- > 0;) {
    FuzzScenario candidate = *current;
    candidate.faults.erase(candidate.faults.begin() + static_cast<ptrdiff_t>(i));
    changed |= search->Try(current, std::move(candidate));
  }

  // Remove waveform segments (keeping at least one so the link is defined).
  for (size_t i = current->segments.size(); i-- > 0 && current->segments.size() > 1;) {
    FuzzScenario candidate = *current;
    candidate.segments.erase(candidate.segments.begin() + static_cast<ptrdiff_t>(i));
    changed |= search->Try(current, std::move(candidate));
  }

  // Flatten: merge each adjacent segment pair into one segment holding the
  // first pair member's parameters for the combined duration.
  for (size_t i = current->segments.size(); i-- > 1;) {
    FuzzScenario candidate = *current;
    candidate.segments[i - 1].duration += candidate.segments[i].duration;
    candidate.segments.erase(candidate.segments.begin() + static_cast<ptrdiff_t>(i));
    changed |= search->Try(current, std::move(candidate));
  }

  // Shorten the horizon (ops past the new horizon become dead weight that
  // the drop-op reduction collects on the next pass).
  if (current->horizon > 2 * kSecond) {
    FuzzScenario candidate = *current;
    const Duration shortened = candidate.horizon * 3 / 4;
    candidate.horizon = std::max<Duration>(2 * kSecond, (shortened / kMillisecond) * kMillisecond);
    if (candidate.horizon < current->horizon) {
      changed |= search->Try(current, std::move(candidate));
    }
  }

  return changed;
}

const char* WardenEnumName(FuzzWardenKind kind) {
  switch (kind) {
    case FuzzWardenKind::kVideo:
      return "FuzzWardenKind::kVideo";
    case FuzzWardenKind::kWeb:
      return "FuzzWardenKind::kWeb";
    case FuzzWardenKind::kSpeech:
      return "FuzzWardenKind::kSpeech";
    case FuzzWardenKind::kBitstream:
      return "FuzzWardenKind::kBitstream";
    case FuzzWardenKind::kFile:
      return "FuzzWardenKind::kFile";
    case FuzzWardenKind::kTelemetry:
      return "FuzzWardenKind::kTelemetry";
  }
  return "FuzzWardenKind::kBitstream";
}

const char* OpEnumName(FuzzOpKind kind) {
  switch (kind) {
    case FuzzOpKind::kRequest:
      return "FuzzOpKind::kRequest";
    case FuzzOpKind::kCancel:
      return "FuzzOpKind::kCancel";
    case FuzzOpKind::kTsop:
      return "FuzzOpKind::kTsop";
  }
  return "FuzzOpKind::kRequest";
}

const char* FaultEnumName(FuzzFaultKind kind) {
  switch (kind) {
    case FuzzFaultKind::kDropProbability:
      return "FuzzFaultKind::kDropProbability";
    case FuzzFaultKind::kDropMessage:
      return "FuzzFaultKind::kDropMessage";
    case FuzzFaultKind::kOutage:
      return "FuzzFaultKind::kOutage";
    case FuzzFaultKind::kLatencySpike:
      return "FuzzFaultKind::kLatencySpike";
    case FuzzFaultKind::kServerStall:
      return "FuzzFaultKind::kServerStall";
    case FuzzFaultKind::kFlowKill:
      return "FuzzFaultKind::kFlowKill";
  }
  return "FuzzFaultKind::kOutage";
}

// Renders a double as a C++ literal that round-trips exactly.
std::string DoubleLiteral(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  std::string text = out.str();
  if (text.find('.') == std::string::npos && text.find('e') == std::string::npos &&
      text.find("inf") == std::string::npos && text.find("nan") == std::string::npos) {
    text += ".0";
  }
  return text;
}

}  // namespace

ShrinkResult ShrinkWithPredicate(const FuzzScenario& scenario,
                                 const ScenarioPredicate& still_fails, int max_attempts) {
  ShrinkResult result;
  result.minimized = scenario;
  result.initial_elements = scenario.ElementCount();

  Search search{still_fails, max_attempts};
  while (ShrinkPass(&result.minimized, &search)) {
    ++result.rounds;
    if (search.attempts >= max_attempts) {
      break;
    }
  }
  // A fixpoint loop that never accepted anything still ran one pass.
  if (result.rounds == 0) {
    result.rounds = 1;
  }

  result.final_elements = result.minimized.ElementCount();
  result.attempts = search.attempts;
  result.accepted = search.accepted;
  return result;
}

bool HasViolationOf(const FuzzRunResult& result, const std::string& oracle_name) {
  if (oracle_name.empty()) {
    return result.violation_count > 0;
  }
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&oracle_name](const FuzzViolation& v) { return v.oracle == oracle_name; });
}

ShrinkResult ShrinkFailingScenario(const FuzzScenario& scenario, const std::string& oracle_name,
                                   const FuzzRunOptions& options) {
  const ScenarioPredicate still_fails = [&oracle_name, &options](const FuzzScenario& candidate) {
    return HasViolationOf(RunFuzzScenario(candidate, options), oracle_name);
  };
  return ShrinkWithPredicate(scenario, still_fails);
}

std::string EmitReproSnippet(const FuzzScenario& scenario, const std::string& oracle_name) {
  std::ostringstream out;
  out << "// Minimal reproducer emitted by ody_fuzz";
  if (!oracle_name.empty()) {
    out << " for oracle \"" << oracle_name << "\"";
  }
  out << ".\n";
  out << "// Original seed " << scenario.seed << ", " << scenario.ElementCount()
      << " scenario elements after shrinking.\n";
  out << "// Drop this test next to tests/check_test.cc; it rebuilds the scenario\n";
  out << "// literally and asserts the run is violation-free.\n";
  out << "\n";
  out << "#include <utility>\n";
  out << "\n";
  out << "#include <gtest/gtest.h>\n";
  out << "\n";
  out << "#include \"src/check/fuzz_runner.h\"\n";
  out << "#include \"src/check/fuzz_scenario.h\"\n";
  out << "#include \"src/check/oracles.h\"\n";
  out << "\n";
  out << "namespace odyssey {\n";
  out << "namespace {\n";
  out << "\n";
  out << "TEST(FuzzRepro, Minimized) {\n";
  out << "  FuzzScenario scenario;\n";
  out << "  scenario.seed = " << scenario.seed << "ULL;\n";
  out << "  scenario.horizon = " << scenario.horizon << ";  // "
      << DurationToSeconds(scenario.horizon) << " s\n";
  if (!scenario.strategy.empty()) {
    out << "  scenario.strategy = \"" << scenario.strategy << "\";\n";
  }
  if (scenario.fleet_nodes >= 2) {
    out << "  scenario.fleet_nodes = " << scenario.fleet_nodes << ";\n";
    out << "  scenario.fleet_servers = " << scenario.fleet_servers << ";\n";
  }
  for (const TraceSegment& segment : scenario.segments) {
    out << "  scenario.segments.push_back(TraceSegment{" << segment.duration << ", "
        << DoubleLiteral(segment.bandwidth_bps) << ", " << segment.latency << "});\n";
  }
  for (size_t i = 0; i < scenario.apps.size(); ++i) {
    const FuzzApp& app = scenario.apps[i];
    out << "  {\n";
    out << "    FuzzApp app;\n";
    out << "    app.warden = " << WardenEnumName(app.warden) << ";\n";
    out << "    app.start = " << app.start << ";\n";
    for (const FuzzOp& op : app.ops) {
      out << "    app.ops.push_back(FuzzOp{" << op.at << ", " << OpEnumName(op.kind) << ", "
          << DoubleLiteral(op.window_lo_frac) << ", " << DoubleLiteral(op.window_hi_frac)
          << ", " << op.variant << ", " << DoubleLiteral(op.magnitude) << "});\n";
    }
    out << "    scenario.apps.push_back(std::move(app));\n";
    out << "  }\n";
  }
  for (const FuzzFault& fault : scenario.faults) {
    out << "  scenario.faults.push_back(FuzzFault{" << FaultEnumName(fault.kind) << ", "
        << fault.start << ", " << fault.duration << ", " << fault.extra << ", "
        << DoubleLiteral(fault.p) << ", " << fault.index << "});\n";
  }
  out << "\n";
  out << "  const FuzzRunResult result = RunFuzzScenario(scenario);\n";
  out << "  EXPECT_EQ(result.violation_count, 0u) << FormatViolations(result.violations);\n";
  out << "}\n";
  out << "\n";
  out << "}  // namespace\n";
  out << "}  // namespace odyssey\n";
  return out.str();
}

std::string CanonicalTraceForScenario(const FuzzScenario& scenario,
                                      const FuzzRunOptions& options) {
  TraceRecorder recorder;
  FuzzRunOptions traced = options;
  traced.trace = &recorder;
  (void)RunFuzzScenario(scenario, traced);
  const std::string json = ChromeTraceExporter::ToJson(recorder);
  std::string error;
  const std::vector<std::string> lines = CanonicalizeChromeTrace(json, &error);
  if (!error.empty()) {
    return "canonicalization error: " + error + "\n";
  }
  std::ostringstream out;
  for (const std::string& line : lines) {
    out << line << "\n";
  }
  return out.str();
}

}  // namespace odyssey
