// The benchmark's measurement toolkit: a span ledger that attributes host
// time to the layers the benchmark calls into, the percentile rule for
// host-time samples, and the digest that proves a simulated output did not
// change between repetitions.
//
// Spans are recorded only around calls the benchmark itself makes into a
// module's public functions (and around callbacks the modules make back into
// benchmark code).  A span's self time is its duration minus the part of it
// that its child spans cover; summed over every span, self times add up to
// the duration of the outermost spans exactly.

#ifndef ODYBENCH_SRC_LEDGER_H_
#define ODYBENCH_SRC_LEDGER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace odybench {

// The layers a span can be charged to, named after the repository's module
// directories.
enum class Layer : uint8_t {
  kBench,           // benchmark glue: the stepping loop outside every other span
  kSim,             // Simulation::RunUntil (event queue, link, rpc, wardens, dispatch)
  kRpcObserve,      // an observation entering the estimator through its log listener
  kStrategy,        // a query to the bandwidth strategy / supply model
  kViceroyReeval,   // the viceroy's re-evaluation after an estimate change
  kViceroyRequest,  // Viceroy::Request / OdysseyClient::Request
  kViceroyCancel,   // Viceroy::Cancel
  kAppHandler,      // the benchmark's own upcall handler
  kCheckOracle,     // an OracleSet hook
  kCheckGenerate,   // GenerateScenario
  kCheckRun,        // RunFuzzScenario
  kSetupRegister,   // set-up: registering apps, attaching connections, first windows
};

inline constexpr size_t kLayerCount = 12;

// Stable metric-name stem for |layer| ("sim", "viceroy.request", ...).
const char* LayerName(Layer layer);

// One recorded span.  Times are host nanoseconds from the ledger's epoch.
struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  Layer layer = Layer::kBench;
  uint32_t parent = kNoParent;  // index into the kept spans
  uint64_t app = 0;             // the app whose cycle the span serves (0 = none)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Ledger {
 public:
  // Keeps the first |max_kept_spans| spans in memory for the span file;
  // every span, kept or not, feeds the per-layer totals.
  explicit Ledger(size_t max_kept_spans = 1 << 16);

  // Opens a span at host time |now_ns|, nested in the innermost open span.
  void Begin(Layer layer, uint64_t app, int64_t now_ns);
  // Closes the innermost open span at |now_ns|.
  void End(int64_t now_ns);

  // Host nanoseconds since the ledger's epoch (steady clock).
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  double self_seconds(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<size_t>(layer)]) * 1e-9;
  }
  uint64_t calls(Layer layer) const { return calls_[static_cast<size_t>(layer)]; }
  // Running totals, for taking the difference across a phase.
  const std::array<int64_t, kLayerCount>& self_ns() const { return self_ns_; }
  const std::array<uint64_t, kLayerCount>& call_counts() const { return calls_; }

  size_t open_depth() const { return stack_.size(); }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_; }

  // Writes the kept spans, one JSON object per line.  Returns false if the
  // file cannot be written.
  bool WriteSpans(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Open {
    Layer layer;
    uint32_t index;  // kept-span index, or Span::kNoParent when not kept
    int64_t start_ns;
    int64_t child_ns;
  };

  Clock::time_point epoch_;
  size_t max_kept_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::array<int64_t, kLayerCount> self_ns_{};
  std::array<uint64_t, kLayerCount> calls_{};
};

// Records one span for its lifetime; does nothing when |ledger| is null, so
// the untraced runs pay one branch per call site.
class Scope {
 public:
  Scope(Ledger* ledger, Layer layer, uint64_t app = 0) : ledger_(ledger) {
    if (ledger_ != nullptr) {
      ledger_->Begin(layer, app, ledger_->Now());
    }
  }
  ~Scope() {
    if (ledger_ != nullptr) {
      ledger_->End(ledger_->Now());
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
};

// Host seconds elapsed since |start| on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Per-layer self time of a complete span list (every parent present),
// computed offline from the spans alone; the ledger's online totals must
// agree with it whenever no span was dropped.
std::array<int64_t, kLayerCount> SelfTimes(const std::vector<Span>& spans);

// The percentile rule: percentile |p| (in (0, 1)) of |n| samples is
// reportable only when at least ten samples lie beyond it.
bool PercentileReportable(size_t n, double p);

// Nearest-rank percentile |p| of |samples| (copied and sorted); 0 if empty.
double Percentile(std::vector<double> samples, double p);

// FNV-1a over the fields of a simulated output.
class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t value) { Add(static_cast<uint64_t>(value)); }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace odybench

#endif  // ODYBENCH_SRC_LEDGER_H_
