// A flat hash map keyed by RequestId.
//
// Request ids come from one counter per table that starts at 1, so the live
// ids of a run are a sliding, mostly dense range.  The map takes an id's
// home bucket as the id modulo the (power-of-two) capacity, which keeps
// consecutive ids in consecutive buckets: registration, delivery and
// consumption walk the table nearly in order.  Collisions resolve by linear
// probing with Robin Hood insertion, which keeps every probe run ordered by
// home bucket; a run of consecutive live ids is then one long run of entries
// all at home, and both a miss and an erase stop at the first of them rather
// than scanning to the run's end.  Erase uses backward-shift deletion, so no
// tombstones build up under the register/consume churn the viceroy runs.
// The table doubles once it would be over half full; growth reinserts every
// live entry.
//
// Id 0 is what a refused or rejected request carries, never a registered
// one, so it marks an empty bucket: Find(0) finds nothing, Erase(0) erases
// nothing, and inserting 0 is a contract failure.

#ifndef SRC_CORE_ID_MAP_H_
#define SRC_CORE_ID_MAP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/core/contract.h"
#include "src/core/resource.h"

namespace odyssey {

template <typename V>
class IdMap {
 public:
  size_t size() const { return size_; }
  // Buckets allocated (0 or a power of two).
  size_t capacity() const { return buckets_.size(); }
  // The bucket a probe for |id| starts at: id % capacity().  Only
  // meaningful once the map has buckets (capacity() > 0).
  size_t HomeOf(RequestId id) const { return static_cast<size_t>(id) & (buckets_.size() - 1); }

  V* Find(RequestId id) {
    const size_t i = IndexOf(id);
    return i == kAbsent ? nullptr : &buckets_[i].value;
  }
  const V* Find(RequestId id) const {
    const size_t i = IndexOf(id);
    return i == kAbsent ? nullptr : &buckets_[i].value;
  }

  // The value stored under |id|, value-initialised first if |id| is absent.
  V& operator[](RequestId id) {
    ODY_ASSERT(id != 0, "request id 0 is never a key");
    if (const size_t i = IndexOf(id); i != kAbsent) {
      return buckets_[i].value;
    }
    if ((size_ + 1) * 2 > buckets_.size()) {
      Grow();
    }
    ++size_;
    return buckets_[Insert(Bucket{id, V{}})].value;
  }

  // Removes |id|; false if it was absent.
  bool Erase(RequestId id) {
    size_t hole = IndexOf(id);
    if (hole == kAbsent) {
      return false;
    }
    // Backward shift: pull each following displaced entry one bucket closer
    // to home, up to the first empty bucket or entry already at home.
    for (size_t i = Next(hole); buckets_[i].key != 0 && Displacement(i) > 0; i = Next(i)) {
      buckets_[hole] = std::move(buckets_[i]);
      hole = i;
    }
    buckets_[hole] = Bucket{};
    --size_;
    return true;
  }

 private:
  // Capacity of the first allocation (the map allocates nothing until the
  // first insert).
  static constexpr size_t kInitialCapacity = 16;
  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  struct Bucket {
    RequestId key = 0;  // 0 = empty
    V value{};
  };

  size_t Next(size_t i) const { return (i + 1) & (buckets_.size() - 1); }
  // How far the entry in occupied bucket |i| sits past its home bucket.
  size_t Displacement(size_t i) const {
    return (i - HomeOf(buckets_[i].key)) & (buckets_.size() - 1);
  }

  // The bucket holding |id|, or kAbsent.  Entries along a probe run are
  // ordered by home bucket, so the probe stops at the first entry closer to
  // its home than |id| would be.
  size_t IndexOf(RequestId id) const {
    if (id == 0 || buckets_.empty()) {
      return kAbsent;
    }
    for (size_t i = HomeOf(id), dist = 0;; i = Next(i), ++dist) {
      if (buckets_[i].key == id) {
        return i;
      }
      if (buckets_[i].key == 0 || Displacement(i) < dist) {
        return kAbsent;
      }
    }
  }

  // Inserts an absent key Robin Hood style: walking its probe run, it takes
  // the bucket of the first entry closer to home than itself and carries
  // that entry on.  Returns the bucket |incoming| itself landed in.
  size_t Insert(Bucket incoming) {
    size_t landed = kAbsent;
    for (size_t i = HomeOf(incoming.key), dist = 0;; i = Next(i), ++dist) {
      if (buckets_[i].key == 0) {
        buckets_[i] = std::move(incoming);
        return landed == kAbsent ? i : landed;
      }
      const size_t theirs = Displacement(i);
      if (theirs < dist) {
        std::swap(buckets_[i], incoming);
        if (landed == kAbsent) {
          landed = i;
        }
        dist = theirs;
      }
    }
  }

  void Grow() {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(old.empty() ? kInitialCapacity : old.size() * 2, Bucket{});
    for (Bucket& bucket : old) {
      if (bucket.key != 0) {
        Insert(std::move(bucket));
      }
    }
  }

  std::vector<Bucket> buckets_;
  size_t size_ = 0;
};

}  // namespace odyssey

#endif  // SRC_CORE_ID_MAP_H_
