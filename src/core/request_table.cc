#include "src/core/request_table.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/contract.h"

namespace odyssey {

namespace {

size_t ResourceIndex(ResourceId resource) {
  const auto index = static_cast<size_t>(resource);
  ODY_DCHECK(index < std::size(kAllResources));
  return index;
}

bool Violates(const ResourceDescriptor& descriptor, double level) {
  return level < descriptor.lower || level > descriptor.upper;
}

}  // namespace

RequestId RequestTable::Register(AppId app, ResourceDescriptor descriptor, uint32_t klass) {
  ODY_ASSERT(!std::isnan(descriptor.lower) && !std::isnan(descriptor.upper), "window bound is NaN");
  const RequestId id = next_id_++;
  const size_t r = ResourceIndex(descriptor.resource);
  uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.entry = Entry{id, app, std::move(descriptor)};
  slot.klass = klass;

  by_id_[id] = index;
  Bucket& bucket = BucketFor(r, app);
  bucket.slots.push_back(index);
  bucket.Fold(slot.entry.descriptor);
  Index(r, index);
  return id;
}

RequestTable::Bucket& RequestTable::BucketFor(size_t r, AppId app) {
  if (app >= buckets_[r].size()) {
    buckets_[r].resize(app + 1);
  }
  return buckets_[r][app];
}

void RequestTable::Reclassify(AppId app, uint32_t klass) {
  for (size_t r = 0; r < kNumResources; ++r) {
    const Bucket* bucket = FindBucket(r, app);
    if (bucket == nullptr) {
      continue;
    }
    for (const uint32_t index : bucket->slots) {
      Slot& slot = slots_[index];
      if (slot.klass == klass) {
        continue;
      }
      Unindex(r, index);
      slot.klass = klass;
      Index(r, index);
    }
  }
}

void RequestTable::Index(size_t r, uint32_t index) {
  const Slot& slot = slots_[index];
  if (slot.klass >= classes_[r].size()) {
    classes_[r].resize(slot.klass + 1);
  }
  ClassHeaps& heaps = classes_[r][slot.klass];
  HeapPush(heaps[kLower], kLower, -slot.entry.descriptor.lower, index);
  HeapPush(heaps[kUpper], kUpper, slot.entry.descriptor.upper, index);
}

void RequestTable::Unindex(size_t r, uint32_t index) {
  const Slot& slot = slots_[index];
  ClassHeaps& heaps = classes_[r][slot.klass];
  HeapErase(heaps[kLower], kLower, slot.heap_pos[kLower]);
  HeapErase(heaps[kUpper], kUpper, slot.heap_pos[kUpper]);
}

void RequestTable::Place(Heap& heap, Side side, uint32_t pos, const HeapNode& node) {
  heap[pos] = node;
  slots_[node.slot].heap_pos[side] = pos;
}

void RequestTable::SiftUp(Heap& heap, Side side, uint32_t pos) {
  const HeapNode node = heap[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (!(node.key < heap[parent].key)) {
      break;
    }
    Place(heap, side, pos, heap[parent]);
    pos = parent;
  }
  Place(heap, side, pos, node);
}

void RequestTable::SiftDown(Heap& heap, Side side, uint32_t pos) {
  const HeapNode node = heap[pos];
  const size_t size = heap.size();
  for (;;) {
    size_t child = 2 * static_cast<size_t>(pos) + 1;
    if (child >= size) {
      break;
    }
    if (child + 1 < size && heap[child + 1].key < heap[child].key) {
      ++child;
    }
    if (!(heap[child].key < node.key)) {
      break;
    }
    Place(heap, side, pos, heap[child]);
    pos = static_cast<uint32_t>(child);
  }
  Place(heap, side, pos, node);
}

void RequestTable::HeapPush(Heap& heap, Side side, double key, uint32_t index) {
  heap.push_back(HeapNode{key, index});
  SiftUp(heap, side, static_cast<uint32_t>(heap.size() - 1));
}

void RequestTable::HeapErase(Heap& heap, Side side, uint32_t pos) {
  const HeapNode last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) {
    return;  // the erased node was the last one
  }
  // The last node fills the hole; it may belong above or below it.
  heap[pos] = last;
  if (pos > 0 && last.key < heap[(pos - 1) / 2].key) {
    SiftUp(heap, side, pos);
  } else {
    SiftDown(heap, side, pos);
  }
}

void RequestTable::Release(uint32_t index) {
  Slot& slot = slots_[index];
  Unindex(ResourceIndex(slot.entry.descriptor.resource), index);
  by_id_.Erase(slot.entry.id);
  slot.entry = Entry{};  // drops the handler closure promptly
  slot.klass = 0;
  free_.push_back(index);
}

Status RequestTable::Cancel(RequestId id) {
  const uint32_t* found = by_id_.Find(id);
  if (found == nullptr) {
    return NotFoundError("no such request");
  }
  const uint32_t index = *found;
  const Entry& entry = slots_[index].entry;
  Bucket& bucket = BucketFor(ResourceIndex(entry.descriptor.resource), entry.app);
  bucket.slots.erase(std::find(bucket.slots.begin(), bucket.slots.end(), index));
  bucket.ResetEnvelope();
  for (const uint32_t kept : bucket.slots) {
    bucket.Fold(slots_[kept].entry.descriptor);
  }
  Release(index);
  return OkStatus();
}

void RequestTable::TakeViolated(ResourceId resource, AppId app, double level,
                                std::vector<Entry>* out) {
  out->clear();
  if (!IsViolated(resource, app, level)) {
    return;  // inside every window (or holding none)
  }
  Bucket& bucket = buckets_[ResourceIndex(resource)][app];
  violated_.clear();
  bucket.ResetEnvelope();
  size_t keep = 0;
  for (const uint32_t index : bucket.slots) {
    const ResourceDescriptor& descriptor = slots_[index].entry.descriptor;
    if (Violates(descriptor, level)) {
      violated_.push_back(index);
    } else {
      bucket.slots[keep++] = index;
      bucket.Fold(descriptor);
    }
  }
  bucket.slots.resize(keep);
  // Slot recycling scrambles in-bucket index order; the observable contract
  // is ascending id (the order the old full-scan map iteration produced).
  std::sort(violated_.begin(), violated_.end(), [this](uint32_t a, uint32_t b) {
    return slots_[a].entry.id < slots_[b].entry.id;
  });
  for (const uint32_t index : violated_) {
    // Moving the entry only pilfers the handler closure; the scalar fields
    // Release() keys its index erasures on are still intact.
    out->push_back(std::move(slots_[index].entry));
    Release(index);
  }
}

std::vector<RequestTable::Entry> RequestTable::EntriesFor(AppId app, ResourceId resource) const {
  const Bucket* bucket = FindBucket(ResourceIndex(resource), app);
  if (bucket == nullptr) {
    return {};
  }
  std::vector<Entry> matching;
  matching.reserve(bucket->slots.size());
  for (const uint32_t index : bucket->slots) {
    matching.push_back(slots_[index].entry);
  }
  std::sort(matching.begin(), matching.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  return matching;
}

void RequestTable::CollectViolatedApps(ResourceId resource, double level,
                                       std::vector<AppId>* out) const {
  // "The whole table" is one scoped walk per class.
  const size_t classes = classes_[ResourceIndex(resource)].size();
  for (uint32_t klass = 0; klass < classes; ++klass) {
    CollectViolatedApps(resource, klass, level, out);
  }
}

void RequestTable::CollectViolatedApps(ResourceId resource, uint32_t klass, double level,
                                       std::vector<AppId>* out) const {
  const size_t r = ResourceIndex(resource);
  if (klass >= classes_[r].size()) {
    return;
  }
  const ClassHeaps& heaps = classes_[r][klass];
  // lower > level  <=>  -lower < -level;  upper < level as is.
  CollectBelow(heaps[kLower], 0, -level, out);
  CollectBelow(heaps[kUpper], 0, level, out);
}

void RequestTable::CollectBelow(const Heap& heap, uint32_t pos, double probe,
                                std::vector<AppId>* out) const {
  // Heap order: a node whose key is not below the probe has no descendant
  // below it either, so the walk prunes there.
  if (pos >= heap.size() || !(heap[pos].key < probe)) {
    return;
  }
  out->push_back(slots_[heap[pos].slot].entry.app);
  CollectBelow(heap, 2 * pos + 1, probe, out);
  CollectBelow(heap, 2 * pos + 2, probe, out);
}

}  // namespace odyssey
