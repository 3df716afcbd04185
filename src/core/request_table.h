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
//   * a flat id map (IdMap) from RequestId to slot, for Cancel;
//   * per-(resource, app) buckets of slot indices — one vector per
//     resource, indexed by app id — making TakeViolated and EntriesFor
//     O(app's windows) instead of O(table), with no lookup to find them.
//     Each bucket also keeps its windows' envelope: the largest lower
//     bound and the smallest upper bound.  Some window excludes a level
//     exactly when the level lies outside the envelope (max and min are
//     exact), so IsViolated is two comparisons, and TakeViolated returns
//     without reading a slot when nothing is violated;
//   * per-resource interval indexes, one pair of indexed binary heaps per
//     window class: a max-heap on each window's lower bound and a min-heap
//     on its upper bound.  A window violated at a level sits at the top of
//     one of them, so CollectViolatedApps walks each heap down from the
//     root and stops at the first node that is not violated: O(violated
//     in class), the query the indexed viceroy re-evaluation is built on.
//     Each slot records its two heap positions, so removing a window is an
//     O(log class) heap erase that allocates nothing.  The class is an
//     opaque caller partition (the viceroy uses the app's connection
//     count) and indexes a dense vector, so it should stay small: idle apps
//     with the same class share one availability level, so probing each
//     class at its own level scans only that class's windows instead of
//     sweeping windows of every other class into the candidate set.
//
// TakeViolated and EntriesFor return entries by ascending RequestId, matching
// the original std::map-backed implementation entry for entry; slot reuse
// never leaks into their order.

#ifndef SRC_CORE_REQUEST_TABLE_H_
#define SRC_CORE_REQUEST_TABLE_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/id_map.h"
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
  // by class can leave it 0.  Neither bound may be NaN (the index orders
  // windows by their bounds); a NaN bound is a contract failure.
  // The descriptor (and so its upcall handler) is moved into the table,
  // never copied.
  RequestId Register(AppId app, ResourceDescriptor descriptor, uint32_t klass = 0);

  // Moves every window of |app| (all resources) to |klass|.  The viceroy
  // calls this when an app's connection count changes, keeping each
  // window's class equal to its owner's current count.
  void Reclassify(AppId app, uint32_t klass);

  // Discards a registration.  kNotFound if it does not exist (it may have
  // been consumed by an upcall already).
  Status Cancel(RequestId id);

  // Removes every entry for (|app|, |resource|) whose window excludes
  // |level| and moves them into |out| (cleared first), in ascending id
  // order.  The caller posts upcalls for them; a caller that reuses |out|
  // takes windows without allocating.
  void TakeViolated(ResourceId resource, AppId app, double level, std::vector<Entry>* out);

  // Whether some window of |app| on |resource| excludes |level|: exactly
  // the test TakeViolated applies to each window, answered from the
  // bucket's envelope in O(1).
  bool IsViolated(ResourceId resource, AppId app, double level) const {
    const Bucket* bucket = FindBucket(static_cast<size_t>(resource), app);
    return bucket != nullptr && (level < bucket->max_lower || level > bucket->min_upper);
  }

  // Entries registered for |app| on |resource| (diagnostics/tests), in
  // ascending id order.
  std::vector<Entry> EntriesFor(AppId app, ResourceId resource) const;

  // Appends the app of every entry on |resource| whose window excludes
  // |level|.  May repeat an app (one per violated window); never misses
  // one.  The order is unspecified.  Does not consume entries — the caller
  // re-evaluates each reported app through the normal TakeViolated path.
  void CollectViolatedApps(ResourceId resource, double level, std::vector<AppId>* out) const;

  // As above, restricted to windows registered (or reclassified) under
  // |klass|.  Cost is O(violated in class): other classes' windows are
  // never touched, which is what keeps the indexed re-evaluation sublinear
  // when classes sit at widely different levels.
  void CollectViolatedApps(ResourceId resource, uint32_t klass, double level,
                           std::vector<AppId>* out) const;

  // Whether |app| holds at least one window on |resource|.  One read of
  // the app's bucket; the viceroy's full-scan re-evaluation asks it to skip
  // apps that no level can owe an upcall.
  bool HoldsWindow(AppId app, ResourceId resource) const {
    const Bucket* bucket = FindBucket(static_cast<size_t>(resource), app);
    return bucket != nullptr && !bucket->slots.empty();
  }

  size_t size() const { return by_id_.size(); }

 private:
  // A class's two heaps, indexed by Side.  Both are min-heaps on a key
  // derived from a window bound, chosen so that "violated at level" reads
  // "key < probe": kLower keys on -lower (probe -level), making it a
  // max-heap on lower; kUpper keys on upper (probe level).
  enum Side : uint32_t { kLower = 0, kUpper = 1 };

  struct HeapNode {
    double key = 0.0;
    uint32_t slot = 0;
  };
  using Heap = std::vector<HeapNode>;
  using ClassHeaps = std::array<Heap, 2>;

  struct Slot {
    Entry entry;
    uint32_t klass = 0;
    // Where this slot's node sits in its class's kLower / kUpper heap.
    std::array<uint32_t, 2> heap_pos{};
  };

  // One app's windows on one resource, and their envelope.  An empty
  // bucket's envelope is the whole line, which excludes no level.
  struct Bucket {
    std::vector<uint32_t> slots;
    double max_lower = -std::numeric_limits<double>::infinity();
    double min_upper = std::numeric_limits<double>::infinity();

    // Widens the envelope back to the whole line.
    void ResetEnvelope() {
      max_lower = -std::numeric_limits<double>::infinity();
      min_upper = std::numeric_limits<double>::infinity();
    }
    // Narrows the envelope to fit |descriptor|'s window too.
    void Fold(const ResourceDescriptor& descriptor) {
      if (descriptor.lower > max_lower) {
        max_lower = descriptor.lower;
      }
      if (descriptor.upper < min_upper) {
        min_upper = descriptor.upper;
      }
    }
  };

  static constexpr size_t kNumResources = std::size(kAllResources);

  // Unlinks the slot from the id map and interval index and returns it to
  // the free list.  Bucket membership is the caller's to maintain.
  void Release(uint32_t index);

  // Adds / removes the slot's window in its class's heaps on resource |r|.
  void Index(size_t r, uint32_t index);
  void Unindex(size_t r, uint32_t index);

  // Heap primitives; every node move goes through Place, which keeps the
  // moved slot's heap_pos current.
  void Place(Heap& heap, Side side, uint32_t pos, const HeapNode& node);
  void SiftUp(Heap& heap, Side side, uint32_t pos);
  void SiftDown(Heap& heap, Side side, uint32_t pos);
  void HeapPush(Heap& heap, Side side, double key, uint32_t index);
  void HeapErase(Heap& heap, Side side, uint32_t pos);
  // Appends the app of every node at or below |pos| whose key is < |probe|.
  void CollectBelow(const Heap& heap, uint32_t pos, double probe, std::vector<AppId>* out) const;

  // The bucket for (|r|, |app|), grown into existence.
  Bucket& BucketFor(size_t r, AppId app);
  // The bucket for (|r|, |app|), or nullptr if |app| is past the end of
  // |r|'s buckets (it has no windows there).
  const Bucket* FindBucket(size_t r, AppId app) const {
    return app < buckets_[r].size() ? &buckets_[r][app] : nullptr;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  // LIFO: the hottest slot is reused first
  std::vector<uint32_t> violated_;  // TakeViolated's scratch, reused
  IdMap<uint32_t> by_id_;
  // Buckets per resource, indexed by app id.
  std::array<std::vector<Bucket>, kNumResources> buckets_;
  // Interval index per resource, indexed by class.
  std::array<std::vector<ClassHeaps>, kNumResources> classes_;
  RequestId next_id_ = 1;
};

}  // namespace odyssey

#endif  // SRC_CORE_REQUEST_TABLE_H_
