// A telemetry feed server: the remote end of the telemetry warden.
//
// Models the data sources behind §2.3's background information-filtering
// application ("monitoring data such as stock prices or enemy movements,
// and alert the user as appropriate").  Each feed produces samples at a
// native rate; a reading carries a value and the time it was produced, so
// clients can measure staleness (the *timeliness* fidelity dimension).

#ifndef SRC_SERVERS_TELEMETRY_SERVER_H_
#define SRC_SERVERS_TELEMETRY_SERVER_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace odyssey {

struct TelemetrySample {
  Time produced_at = 0;
  double value = 0.0;
};

class TelemetryServer {
 public:
  explicit TelemetryServer(Simulation* sim) : sim_(sim) {}

  // Creates a feed producing a sample every |native_period| via a bounded
  // random walk starting at |initial_value| with per-step |step_stddev|.
  void CreateFeed(const std::string& name, Duration native_period, double initial_value,
                  double step_stddev);

  // Injects an out-of-band spike into a feed (an "enemy movement"): the
  // next produced sample jumps by |delta|.  Used to test alerting.
  Status InjectEvent(const std::string& name, double delta);

  // The latest |count| samples of a feed, newest last.  Sample payloads are
  // kTelemetrySampleBytes each on the wire.
  Status Latest(const std::string& name, int count, std::vector<TelemetrySample>* out) const;

  // Native production period of the feed.
  Status NativePeriod(const std::string& name, Duration* out) const;

  static constexpr double kTelemetrySampleBytes = 128.0;
  // History kept per feed.
  static constexpr size_t kHistoryDepth = 4096;

 private:
  struct Feed {
    Duration native_period = 0;
    double value = 0.0;
    double step_stddev = 0.0;
    double pending_event = 0.0;
    std::vector<TelemetrySample> history;
  };

  // The produce event captures the feed name as `name = name`.  A plain
  // `[name]` copy of the const& would be a const member, which cannot be
  // moved, so the event queue would box every capture on the heap.
  void Produce(const std::string& name);

  Simulation* sim_;
  std::map<std::string, Feed> feeds_;
};

}  // namespace odyssey

#endif  // SRC_SERVERS_TELEMETRY_SERVER_H_
