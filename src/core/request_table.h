// The viceroy's table of registered resource expectations (§4.2).
//
// Each entry is a window of tolerance on one resource for one application.
// When the availability of a resource strays outside a registered window,
// the entry is consumed and an upcall is generated; the application is then
// expected to register a revised window appropriate to its new fidelity.
//
// Layout: entries live in a slab of slots recycled through a free list, so
// a client cycling through request/upcall/re-request churn reuses the same
// hot cache lines instead of exercising the allocator, and 100k concurrent
// windows sit in one contiguous allocation.  Around the slab:
//
//   * per-(resource, app) buckets of slot indices — one vector per
//     resource, indexed by app id — making TakeViolated and EntriesFor
//     O(app's windows) instead of O(table), with no lookup to find them;
//   * per-resource interval indexes ordered by (class, window bound),
//     letting CollectViolatedApps find every app with a violated window at
//     a given level in O(log table + violated) — the query the indexed
//     viceroy re-evaluation is built on.  The class is an opaque caller
//     partition (the viceroy uses the app's connection count): idle apps
//     with the same class share one availability level, so probing each
//     class at its own level scans only that class's windows instead of
//     sweeping windows of every other class into the candidate set.
//
// All result orderings are by ascending RequestId, matching the original
// std::map-backed implementation entry for entry; slot reuse never leaks
// into observable order.

#ifndef SRC_CORE_REQUEST_TABLE_H_
#define SRC_CORE_REQUEST_TABLE_H_

#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/resource.h"
#include "src/core/status.h"

namespace odyssey {

class RequestTable {
 public:
  struct Entry {
    RequestId id = 0;
    AppId app = 0;
    ResourceDescriptor descriptor;
  };

  // Registers a window of tolerance.  The caller has already verified the
  // current level lies within the window.  |klass| partitions the interval
  // index for scoped CollectViolatedApps queries; callers that never probe
  // by class can leave it 0.
  RequestId Register(AppId app, const ResourceDescriptor& descriptor, uint32_t klass = 0);

  // Moves every window of |app| (all resources) to |klass|.  The viceroy
  // calls this when an app's connection count changes, keeping each
  // window's class equal to its owner's current count.
  void Reclassify(AppId app, uint32_t klass);

  // Discards a registration.  kNotFound if it does not exist (it may have
  // been consumed by an upcall already).
  Status Cancel(RequestId id);

  // Removes and returns every entry for (|app|, |resource|) whose window
  // excludes |level|, in ascending id order.  The caller posts upcalls for
  // the returned entries.
  std::vector<Entry> TakeViolated(ResourceId resource, AppId app, double level);

  // Entries registered for |app| on |resource| (diagnostics/tests), in
  // ascending id order.
  std::vector<Entry> EntriesFor(AppId app, ResourceId resource) const;

  // Appends the app of every entry on |resource| whose window excludes
  // |level|.  May repeat an app (one per violated window); never misses
  // one.  Does not consume entries — the caller re-evaluates each reported
  // app through the normal TakeViolated path.
  void CollectViolatedApps(ResourceId resource, double level, std::vector<AppId>* out) const;

  // As above, restricted to windows registered (or reclassified) under
  // |klass|.  Cost is O(log table + violated in class): other classes'
  // windows are never touched, which is what keeps the indexed
  // re-evaluation sublinear when classes sit at widely different levels.
  void CollectViolatedApps(ResourceId resource, uint32_t klass, double level,
                           std::vector<AppId>* out) const;

  size_t size() const { return by_id_.size(); }

 private:
  struct Slot {
    Entry entry;
    uint32_t klass = 0;
    bool occupied = false;
  };

  static constexpr size_t kNumResources = std::size(kAllResources);

  // Index keys order by class first, then window bound with the owning id
  // as tiebreak, so equal bounds coexist, iteration is deterministic, and
  // one class's windows form a contiguous key range.
  using BoundKey = std::tuple<uint32_t, double, RequestId>;

  // Unlinks the slot from the id map and interval indexes and returns it to
  // the free list.  Bucket membership is the caller's to maintain.
  void Release(uint32_t index);

  // The bucket for (|r|, |app|), grown into existence.
  std::vector<uint32_t>& BucketFor(size_t r, AppId app);
  // The bucket for (|r|, |app|), or nullptr if |app| is past the end of
  // |r|'s buckets (it has no windows there).
  const std::vector<uint32_t>* FindBucket(size_t r, AppId app) const {
    return app < buckets_[r].size() ? &buckets_[r][app] : nullptr;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  // LIFO: the hottest slot is reused first
  std::unordered_map<RequestId, uint32_t> by_id_;
  // Slot indices per resource, indexed by app id.
  std::array<std::vector<std::vector<uint32_t>>, kNumResources> buckets_;
  std::array<std::map<BoundKey, uint32_t>, kNumResources> lower_index_;
  std::array<std::map<BoundKey, uint32_t>, kNumResources> upper_index_;
  // Live window count per class, per resource — the class set the global
  // CollectViolatedApps overload iterates.
  std::array<std::map<uint32_t, size_t>, kNumResources> class_counts_;
  RequestId next_id_ = 1;
};

}  // namespace odyssey

#endif  // SRC_CORE_REQUEST_TABLE_H_
