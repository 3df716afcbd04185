// Experiment scaffolding: the paper's trial count and periodic sampling.
//
// Every figure in the paper is the mean of five trials.  Sampler records a
// value at a fixed virtual-time period, producing the estimate traces of
// Figures 8 and 9.

#ifndef SRC_METRICS_TRIAL_H_
#define SRC_METRICS_TRIAL_H_

#include <functional>
#include <utility>

#include "src/metrics/stats.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace odyssey {

inline constexpr int kPaperTrials = 5;

// Periodically samples |probe| into a Series until stopped or the
// simulation drains.  Sample timestamps are relative to |epoch|.
class Sampler {
 public:
  Sampler(Simulation* sim, Duration period, Time epoch, std::function<double()> probe)
      : sim_(sim), period_(period), epoch_(epoch), probe_(std::move(probe)) {}

  // Begins sampling at the next period boundary; continues until |until|.
  void Run(Time until) {
    until_ = until;
    Tick();
  }

  const Series& series() const { return series_; }

 private:
  void Tick() {
    if (sim_->now() > until_) {
      return;
    }
    series_.push_back(
        SeriesPoint{DurationToSeconds(sim_->now() - epoch_), probe_()});
    sim_->Schedule(period_, [this] { Tick(); });
  }

  Simulation* sim_;
  Duration period_;
  Time epoch_;
  std::function<double()> probe_;
  Time until_ = 0;
  Series series_;
};

}  // namespace odyssey

#endif  // SRC_METRICS_TRIAL_H_
