// Invariant oracles for the simulation fuzzer.
//
// An oracle is an always-on checker attached to a running Odyssey stack that
// records a structured violation when a system-level invariant breaks,
// instead of aborting — the fuzzer wants to harvest every violation in a
// run, attribute it to an oracle by name, and hand the scenario to the
// shrinker.  The oracles audit the contracts the paper's design leans on:
//
//   upcall-order / upcall-duplicate / upcall-lost   exactly-once, in-order
//       per-app delivery (§4.3), observed at the dispatcher;
//   upcall-after-cancel     no delivery for a registration that was
//       successfully cancelled (a cancel that returns ok proves the entry
//       was still in the table, so no upcall was ever posted for it);
//   upcall-window           a delivered level must lie outside the window
//       it was registered with (upcalls fire on violation, never inside);
//   upcall-unknown-request  every delivery maps to a window the viceroy
//       granted (Arm() feeds the ledger from the viceroy's window hook);
//   fair-share              per-connection availability respects the
//       fair-share floor supply/(active+1) and the supply ceiling (§6.2.1);
//   supply-bounds           the supply estimate is finite and non-negative;
//   ewma-bounds             per-connection smoothed estimates are finite
//       and non-negative (rtt strictly positive once observed);
//   byte-conservation       the link never delivers more bytes than the
//       integral of the nominal waveform;
//   clock-monotonicity      event firing times never run backwards;
//   same-time-order         every pair of events fired at an identical
//       virtual timestamp pops in scheduling order — the deterministic
//       (when, seq) tie-break key is a total order and the queue honors
//       it, which is what makes same-instant bursts (batched upcalls,
//       reaction storms to one supply step) replay identically;
//   upcall-stranded         no upcall remains queued after the run drains
//       (no receiver is ever blocked by the fuzzer's drivers).

#ifndef SRC_CHECK_ORACLES_H_
#define SRC_CHECK_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/check/fuzz_scenario.h"
#include "src/core/id_map.h"
#include "src/core/resource.h"
#include "src/core/upcall.h"
#include "src/core/viceroy.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/centralized.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {

// Cadence of the periodic Sample() audit every armed run schedules.
inline constexpr Duration kAuditPeriod = 100 * kMillisecond;
// Virtual time an armed run keeps going after its horizon, so queued
// upcalls and in-flight transfers drain before the final audit.
inline constexpr Duration kDrainGrace = 2 * kSecond;

// The periodic audit every armed run shares: |audit| runs at each
// kAuditPeriod tick at or before |until|, and the first tick after |until|
// fires as a no-op and stops (an event like any other, so it counts in
// Simulation::events_processed when the run reaches it).
void ScheduleAudits(Simulation* sim, Time until, std::function<void()> audit);

// One recorded invariant violation.
struct FuzzViolation {
  std::string oracle;  // which invariant (names above)
  Time at = 0;         // virtual time of detection
  AppId app = 0;       // 0 when not app-scoped
  std::string detail;  // human-readable specifics
};

// Formats violations one per line (for assertion messages and the CLI).
std::string FormatViolations(const std::vector<FuzzViolation>& violations);

class OracleSet : public Viceroy::WindowObserver {
 public:
  // Caps recorded violations per oracle name; later ones are counted but
  // not stored, so a systematically broken invariant cannot balloon memory.
  static constexpr size_t kMaxRecordedPerOracle = 32;

  // Audits the stack owned by the runner.  All pointers are borrowed and
  // must outlive the oracle set.  |scenario| supplies the nominal waveform
  // for the byte-conservation bound.  |strategy| may be null (fleet nodes
  // running laissez-faire or blind optimism); the supply/fair-share audits
  // are skipped and the strategy-independent oracles still run.
  OracleSet(const FuzzScenario& scenario, Simulation* sim, Viceroy* viceroy,
            CentralizedStrategy* strategy, Link* link);

  OracleSet(const OracleSet&) = delete;
  OracleSet& operator=(const OracleSet&) = delete;

  // Runs after the oracle's own hook on every delivery it observes.
  using DeliveryTap = UpcallDispatcher::DeliveryObserver;

  // Attaches the hooks below: the viceroy's delivery and window observers
  // and, with |clock|, the simulation's step and tie observers (one armed
  // set per Simulation audits its shared clock).  The window observer feeds
  // the ledger every window the viceroy grants or cancels, so no driver
  // reports its registrations.  |tap|, when set, sees each delivery after
  // the oracle does.  Arming again replaces the delivery hook and its tap;
  // Finish() removes everything Arm() installed.
  void Arm(bool clock, DeliveryTap tap = {});

  // --- Hooks Arm() attaches ---

  // From UpcallDispatcher's delivery observer.
  void OnUpcallDelivered(AppId app, uint64_t seq, RequestId request, ResourceId resource,
                         double level, Time posted_at);

  // From Simulation's step observer: |when| is the next event's firing time.
  void OnStep(Time when);

  // From the event queue's tie observer: two events fired consecutively at
  // the identical virtual time |when|, scheduled as |prev_seq| then |seq|.
  // The tie-break contract requires prev_seq < seq (FIFO among ties).
  void OnTieBreak(Time when, uint64_t prev_seq, uint64_t seq);

  // From the viceroy's window observer: a granted request() and an ok
  // cancel().  Public so a stack that never arms can feed the ledger itself.
  void OnWindowRegistered(AppId app, RequestId id, double lower, double upper) override;
  void OnWindowCancelled(RequestId id) override;

  // Periodic audit of estimator, fair-share and link-conservation bounds.
  void Sample();

  // The availabilities the last Sample() computed, one per
  // AttachedConnections() entry in its order, if that sample ran at |now|
  // and audited every attached connection; null otherwise (no estimate yet,
  // or a rotating window).  The fuzz runner's differential log reads them
  // instead of asking the strategy a second time.
  const std::vector<double>* AuditedAvailabilities(Time now) const {
    return audited_at_ == now ? &audited_ : nullptr;
  }

  // Caps how many connections one Sample() audits for the fair-share and
  // ewma bounds (0 = all).  Above the cap, samples audit a rotating window
  // so every connection is still covered across consecutive samples; the
  // tier_scale campaign sets this to keep oracle cost sub-linear in N.
  void set_max_audited_connections(size_t cap) { max_audited_connections_ = cap; }

  // End-of-run audit, after the drain grace period.  Removes whatever Arm()
  // installed first, so nothing reaches the oracle afterwards.
  void Finish();

  const std::vector<FuzzViolation>& violations() const { return violations_; }
  // Total violations detected, including ones beyond the recording cap.
  uint64_t violation_count() const { return total_violations_; }
  // Same-timestamp pairs the tie-break auditor examined (violating or not)
  // — the audit's coverage figure, reported by ody_fuzz's totals line.
  uint64_t tie_pairs_audited() const { return tie_pairs_audited_; }

 private:
  // One ledger entry per id OnWindowRegistered reported.  A consumed
  // registration leaves the ledger; a cancelled one stays for the rest of
  // the run, flagged, so a later delivery for it reads as
  // upcall-after-cancel rather than upcall-unknown-request.  Once newer ids
  // pass it, a cancelled entry sits in the IdMap's side map, where it costs
  // the live ids nothing.
  struct Window {
    AppId app = 0;
    double lower = 0.0;
    double upper = 0.0;
    bool cancelled = false;
  };

  void Report(const std::string& oracle, AppId app, std::string detail);

  // The scenario's nominal waveform, built once: the byte-conservation
  // bound integrates it on every Sample(), through a cursor that resumes
  // where the previous sample's integral stopped.
  const ReplayTrace capacity_;
  IntegralCursor capacity_bytes_{&capacity_};
  Simulation* sim_;
  Viceroy* viceroy_;
  CentralizedStrategy* strategy_;
  Link* link_;

  std::vector<uint64_t> last_seq_;  // indexed by app id; 0 = nothing delivered
  IdMap<Window> ledger_;
  Time last_event_time_ = 0;
  uint64_t tie_pairs_audited_ = 0;
  double last_bytes_delivered_ = 0.0;
  size_t max_audited_connections_ = 0;
  size_t audit_cursor_ = 0;
  std::vector<double> audited_;  // the last Sample()'s availabilities
  Time audited_at_ = -1;         // when they covered every connection; -1 = not
  bool armed_ = false;
  bool armed_clock_ = false;

  std::vector<FuzzViolation> violations_;
  std::map<std::string, uint64_t> per_oracle_count_;
  uint64_t total_violations_ = 0;
};

}  // namespace odyssey

#endif  // SRC_CHECK_ORACLES_H_
