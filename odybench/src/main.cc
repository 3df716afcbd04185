// odybench: runs one workload for a host-time budget and reports its
// metrics.
//
//   odybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans-out <path>] [--expect-digest <hex>]
//
// The workload's trial (a fixed virtual-time schedule built from --seed) is
// repeated until the timed phases add up to --seconds, and at least three
// times.  Every repetition must produce the same simulated-output digest, and
// that digest must equal --expect-digest when one is given.  With --trace 0
// the run reports the end-to-end metrics: the fastest set-up, and rates over
// the timed phase with each step at its fastest repetition
// (FastestTimedPhase).  With --trace 1 it alternates
// untraced repetitions with traced ones, which record spans into a ledger,
// checks their digests agree, and reports the per-layer metrics.  The last
// line of standard output is one JSON object; the exit code is non-zero when
// a digest differs.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/ledger.h"
#include "src/workload.h"

namespace odybench {
namespace {

constexpr size_t kMinUntraced = 3;
constexpr size_t kMinTraced = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  bool has_expected_digest = false;
  uint64_t expected_digest = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--expect-digest") {
      args->expected_digest = std::strtoull(value.c_str(), &end, 16);
      args->has_expected_digest = true;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 && (args->trace == 0 || args->trace == 1);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

template <typename F>
double MedianOf(const std::vector<TrialResult>& trials, F f) {
  std::vector<double> values;
  values.reserve(trials.size());
  for (const TrialResult& trial : trials) {
    values.push_back(f(trial));
  }
  return Median(std::move(values));
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The end-to-end metrics over the untraced trials: the fastest set-up, and
// rates over the fastest timed phase.
std::vector<Metric> EndToEnd(const std::vector<TrialResult>& trials) {
  const double timed_s = FastestTimedPhase(trials);
  return {
      {"setup_s", FastestSetUp(trials), "s"},
      {"cycles_per_s", Ratio(static_cast<double>(trials.front().cycles), timed_s), "1/s"},
      {"sim_speed", Ratio(trials.front().sim_seconds, timed_s), "s/s"},
  };
}

// Operation totals and fuzz_mix run samples pooled over trials.
struct Pooled {
  std::vector<double> run_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double failed_frac() const {
    return Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  }
};

Pooled Pool(const std::vector<TrialResult>& trials) {
  Pooled pooled;
  for (const TrialResult& trial : trials) {
    pooled.run_ms.insert(pooled.run_ms.end(), trial.run_ms.begin(), trial.run_ms.end());
    pooled.attempted += trial.attempted;
    pooled.failed += trial.failed;
  }
  return pooled;
}

// The per-layer ledger: per-trial means over the traced repetitions for host
// times, deterministic per-trial counts from the first untraced repetition.
std::vector<Metric> PerLayer(const std::vector<TrialResult>& untraced,
                             const std::vector<TrialResult>& traced, const Ledger& ledger,
                             double peak_rss_mb) {
  const auto n = static_cast<double>(traced.size());
  const auto self = [&traced, n](Layer layer) {
    double total = 0.0;
    for (const TrialResult& trial : traced) {
      total += static_cast<double>(trial.self_ns[static_cast<size_t>(layer)]) * 1e-9;
    }
    return total / n;
  };
  const auto calls = [&traced, n](Layer layer) {
    double total = 0.0;
    for (const TrialResult& trial : traced) {
      total += static_cast<double>(trial.calls[static_cast<size_t>(layer)]);
    }
    return total / n;
  };
  const TrialResult& base = untraced.front();
  const LayerCounts& c = base.counts;
  const auto cycles = static_cast<double>(base.cycles);
  const double untraced_timed = MedianOf(untraced, [](const TrialResult& t) { return t.timed_s; });
  const double traced_timed = MedianOf(traced, [](const TrialResult& t) { return t.timed_s; });
  double traced_total = 0.0;
  double self_total = 0.0;
  for (const TrialResult& trial : traced) {
    traced_total += trial.timed_s;
    for (const int64_t ns : trial.self_ns) {
      self_total += static_cast<double>(ns) * 1e-9;
    }
  }
  const Pooled pooled = Pool(untraced);
  const std::vector<double>& run_ms = pooled.run_ms;
  const bool p99_ok = PercentileReportable(run_ms.size(), 0.99);
  const double requests = static_cast<double>(c.requests);
  return {
      {"cycles", cycles, "count"},
      {"sim.self_s", self(Layer::kSim), "s"},
      {"sim.events", static_cast<double>(c.sim_events), "count"},
      {"sim.events_per_cycle", Ratio(static_cast<double>(c.sim_events), cycles), "ratio"},
      {"net.bytes", c.net_bytes, "B"},
      {"net.bytes_per_s", Ratio(c.net_bytes, untraced_timed), "B/s"},
      {"net.flows_mean", c.flows_mean, "count"},
      {"net.flows_max", static_cast<double>(c.flows_max), "count"},
      {"rpc.observe_self_s", self(Layer::kRpcObserve), "s"},
      {"rpc.observations", calls(Layer::kRpcObserve), "count"},
      {"strategy.self_s", self(Layer::kStrategy), "s"},
      {"strategy.calls", calls(Layer::kStrategy), "count"},
      {"strategy.calls_per_cycle", Ratio(calls(Layer::kStrategy), cycles), "ratio"},
      {"estimator.scan_ops", static_cast<double>(c.scan_ops), "count"},
      {"estimator.scan_ops_per_cycle", Ratio(static_cast<double>(c.scan_ops), cycles), "ratio"},
      {"viceroy.reeval_self_s", self(Layer::kViceroyReeval), "s"},
      {"viceroy.reevals", calls(Layer::kViceroyReeval), "count"},
      {"viceroy.request_self_s", self(Layer::kViceroyRequest), "s"},
      {"viceroy.requests", requests, "count"},
      {"viceroy.registrations", static_cast<double>(c.registrations), "count"},
      {"viceroy.attempts_per_registration",
       Ratio(requests, static_cast<double>(c.registrations)), "ratio"},
      {"viceroy.cancel_self_s", self(Layer::kViceroyCancel), "s"},
      {"viceroy.cancels", static_cast<double>(c.cancels), "count"},
      {"viceroy.cancels_lost", static_cast<double>(c.cancels_lost), "count"},
      {"upcall.delivered", static_cast<double>(c.upcalls_delivered), "count"},
      {"upcall.queued_max", static_cast<double>(c.upcalls_queued_max), "count"},
      {"upcall.latency_virtual_ms_mean", c.upcall_latency_ms_mean, "ms"},
      {"app.handler_self_s", self(Layer::kAppHandler), "s"},
      {"check.oracle_self_s", self(Layer::kCheckOracle), "s"},
      {"check.oracle_calls", calls(Layer::kCheckOracle), "count"},
      {"check.violations", static_cast<double>(c.violations), "count"},
      {"check.generate_s", ledger.self_seconds(Layer::kCheckGenerate) / n, "s"},
      {"check.run_s", self(Layer::kCheckRun), "s"},
      {"check.runs_per_s", Ratio(static_cast<double>(base.run_ms.size()), untraced_timed), "1/s"},
      {"check.run_ms_p50", Percentile(run_ms, 0.5), "ms"},
      {"check.run_ms_p99", p99_ok ? Percentile(run_ms, 0.99) : 0.0, "ms"},
      {"check.run_samples", static_cast<double>(run_ms.size()), "count"},
      {"failed_frac", pooled.failed_frac(), "ratio"},
      {"setup.register_s", MedianOf(untraced, [](const TrialResult& t) { return t.register_s; }),
       "s"},
      {"mem.rss_after_setup_mb", base.rss_after_setup_mb, "MB"},
      {"mem.peak_rss_mb", peak_rss_mb, "MB"},
      {"bench.self_s", self(Layer::kBench), "s"},
      {"trace.overhead_frac", Ratio(traced_timed, untraced_timed) - 1.0, "ratio"},
      {"trace.self_sum_frac", Ratio(self_total, traced_total), "ratio"},
      {"trace.spans_kept", static_cast<double>(ledger.spans().size()), "count"},
      {"trace.spans_dropped", static_cast<double>(ledger.dropped_spans()), "count"},
  };
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: odybench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>] [--expect-digest <hex>]\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "odybench: unknown workload '%s'; known:", args.workload.c_str());
    for (const Workload& known : Workloads()) {
      std::fprintf(stderr, " %s", known.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  Ledger ledger;
  std::vector<TrialResult> untraced;
  std::vector<TrialResult> traced;
  double timed_total = 0.0;
  // Peak memory of one untraced trial: the first one runs before any trace.
  double first_trial_peak_mb = 0.0;
  const auto done = [&] {
    const bool enough_traced = args.trace == 0 || traced.size() >= kMinTraced;
    return untraced.size() >= kMinUntraced && enough_traced && timed_total >= args.seconds;
  };
  while (!done()) {
    // Traced runs alternate with untraced ones, so drift in the machine's
    // speed lands on both sides of trace.overhead_frac.
    const bool trace_next = args.trace == 1 && traced.size() < untraced.size();
    Ledger* trial_ledger = trace_next ? &ledger : nullptr;
    std::unique_ptr<Trial> trial = workload->make(args.seed, trial_ledger);
    TrialResult result = RunTrial(trial.get(), trial_ledger);
    std::printf("trial %zu%s: setup %.4f s, timed %.4f s, %" PRIu64 " cycles, digest %016" PRIx64
                "\n",
                untraced.size() + traced.size(), trace_next ? " (traced)" : "", result.setup_s,
                result.timed_s, result.cycles, result.digest);
    timed_total += result.timed_s;
    if (untraced.empty() && traced.empty()) {
      first_trial_peak_mb = PeakRssMb();
    }
    (trace_next ? traced : untraced).push_back(std::move(result));
  }

  const uint64_t digest = untraced.front().digest;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<TrialResult>* trials : {&untraced, &traced}) {
    for (const TrialResult& trial : *trials) {
      if (trial.digest != digest) {
        std::fprintf(stderr, "odybench: %s digest %016" PRIx64 " differs from %016" PRIx64 "\n",
                     trials == &traced ? "traced" : "untraced", trial.digest, digest);
        correct = false;
      }
      attempted += trial.attempted;
      failed += trial.failed;
    }
  }
  if (args.has_expected_digest && digest != args.expected_digest) {
    std::fprintf(stderr,
                 "odybench: digest %016" PRIx64 " differs from the expected %016" PRIx64 "\n",
                 digest, args.expected_digest);
    correct = false;
  }

  std::printf("odybench %s seed=%" PRIu64 " trials=%zu untraced + %zu traced digest=%016" PRIx64
              " failed=%" PRIu64 "/%" PRIu64 "\n",
              workload->name, args.seed, untraced.size(), traced.size(), digest, failed,
              attempted);
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEnd(untraced);
    PrintTable("end-to-end (fastest set-up; rates over the fastest steps)", metrics);
  } else {
    metrics = PerLayer(untraced, traced, ledger, first_trial_peak_mb);
    PrintTable("per-layer (per trial; host times are means over traced trials)", metrics);
    if (!args.spans_out.empty() && !ledger.WriteSpans(args.spans_out)) {
      std::fprintf(stderr, "odybench: cannot write spans to %s\n", args.spans_out.c_str());
      correct = false;
    }
  }
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace odybench

int main(int argc, char** argv) { return odybench::Main(argc, argv); }
