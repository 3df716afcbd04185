// A flat map keyed by RequestId.
//
// Request ids come from one counter per table that starts at 1, so the live
// ids of a run are a sliding, mostly dense range.  The map is a ring of
// power-of-two capacity in which id i can only live in bucket
// i % capacity(): two ids less than capacity() apart never share a bucket,
// so there is nothing to probe.  An id that stays while newer ids churn a
// whole ring past it (a straggler) moves to an ordered side map, once:
//   * an insert whose bucket holds an older id moves that entry to the side;
//   * an insert of an id older than its bucket's occupant goes to the side
//     directly.
// A lookup reads one bucket, and consults the side map only for an id no
// newer than the newest straggler, so the common case never pays for it.
// The ring doubles once the map would be over half full.  Ids in distinct
// buckets modulo c stay distinct modulo 2c, so growth moves every ring entry
// without a collision; stragglers stay where they are.
//
// Id 0 is what a refused or rejected request carries, never a registered
// one, so it marks an empty bucket: Find(0) finds nothing, Erase(0) erases
// nothing, and inserting 0 is a contract failure.

#ifndef SRC_CORE_ID_MAP_H_
#define SRC_CORE_ID_MAP_H_

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "src/core/contract.h"
#include "src/core/resource.h"

namespace odyssey {

template <typename V>
class IdMap {
 public:
  size_t size() const { return size_; }
  // Ring buckets allocated (0 or a power of two).
  size_t capacity() const { return ring_.size(); }
  // Entries that live in the side map.
  size_t stragglers() const { return side_.size(); }

  V* Find(RequestId id) { return const_cast<V*>(std::as_const(*this).Find(id)); }
  const V* Find(RequestId id) const {
    if (id == 0 || ring_.empty()) {
      return nullptr;
    }
    const Bucket& bucket = BucketOf(id);
    if (bucket.key == id) {
      return &bucket.value;
    }
    if (!MayBeStraggler(id)) {
      return nullptr;
    }
    const auto it = side_.find(id);
    return it == side_.end() ? nullptr : &it->second;
  }

  // The value stored under |id|, value-initialised first if |id| is absent.
  V& operator[](RequestId id) {
    ODY_ASSERT(id != 0, "request id 0 is never a key");
    if (V* found = Find(id)) {
      return *found;
    }
    if ((size_ + 1) * 2 > ring_.size()) {
      Grow();
    }
    ++size_;
    Bucket& bucket = BucketOf(id);
    if (bucket.key > id) {
      return side_[id];
    }
    if (bucket.key != 0) {
      side_.emplace(bucket.key, std::move(bucket.value));
    }
    bucket = Bucket{id, V{}};
    return bucket.value;
  }

  // Removes |id|; false if it was absent.
  bool Erase(RequestId id) {
    if (id == 0 || ring_.empty()) {
      return false;
    }
    Bucket& bucket = BucketOf(id);
    if (bucket.key == id) {
      bucket = Bucket{};
    } else if (!MayBeStraggler(id) || side_.erase(id) == 0) {
      return false;
    }
    --size_;
    return true;
  }

 private:
  // Capacity of the first allocation (the map allocates nothing until the
  // first insert).
  static constexpr size_t kInitialCapacity = 16;

  struct Bucket {
    RequestId key = 0;  // 0 = empty
    V value{};
  };

  Bucket& BucketOf(RequestId id) { return ring_[id & (ring_.size() - 1)]; }
  const Bucket& BucketOf(RequestId id) const { return ring_[id & (ring_.size() - 1)]; }
  // False when |id| is newer than every straggler, so the side map cannot
  // hold it.
  bool MayBeStraggler(RequestId id) const { return !side_.empty() && id <= side_.rbegin()->first; }

  void Grow() {
    std::vector<Bucket> old = std::move(ring_);
    ring_.assign(old.empty() ? kInitialCapacity : old.size() * 2, Bucket{});
    for (Bucket& bucket : old) {
      if (bucket.key != 0) {
        BucketOf(bucket.key) = std::move(bucket);
      }
    }
  }

  std::vector<Bucket> ring_;
  std::map<RequestId, V> side_;
  size_t size_ = 0;
};

}  // namespace odyssey

#endif  // SRC_CORE_ID_MAP_H_
