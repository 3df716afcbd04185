#include "src/core/request_table.h"

#include <algorithm>
#include <limits>

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

RequestId RequestTable::Register(AppId app, const ResourceDescriptor& descriptor,
                                 uint32_t klass) {
  const RequestId id = next_id_++;
  uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.entry = Entry{id, app, descriptor};
  slot.klass = klass;
  slot.occupied = true;

  const size_t r = ResourceIndex(descriptor.resource);
  by_id_.emplace(id, index);
  BucketFor(r, app).push_back(index);
  lower_index_[r].emplace(BoundKey{klass, descriptor.lower, id}, index);
  upper_index_[r].emplace(BoundKey{klass, descriptor.upper, id}, index);
  ++class_counts_[r][klass];
  return id;
}

std::vector<uint32_t>& RequestTable::BucketFor(size_t r, AppId app) {
  if (app >= buckets_[r].size()) {
    buckets_[r].resize(app + 1);
  }
  return buckets_[r][app];
}

void RequestTable::Reclassify(AppId app, uint32_t klass) {
  for (size_t r = 0; r < kNumResources; ++r) {
    const std::vector<uint32_t>* bucket = FindBucket(r, app);
    if (bucket == nullptr) {
      continue;
    }
    for (const uint32_t index : *bucket) {
      Slot& slot = slots_[index];
      if (slot.klass == klass) {
        continue;
      }
      const Entry& entry = slot.entry;
      lower_index_[r].erase(BoundKey{slot.klass, entry.descriptor.lower, entry.id});
      upper_index_[r].erase(BoundKey{slot.klass, entry.descriptor.upper, entry.id});
      auto& counts = class_counts_[r];
      const auto count_it = counts.find(slot.klass);
      if (--count_it->second == 0) {
        counts.erase(count_it);
      }
      slot.klass = klass;
      lower_index_[r].emplace(BoundKey{klass, entry.descriptor.lower, entry.id}, index);
      upper_index_[r].emplace(BoundKey{klass, entry.descriptor.upper, entry.id}, index);
      ++counts[klass];
    }
  }
}

void RequestTable::Release(uint32_t index) {
  Slot& slot = slots_[index];
  const Entry& entry = slot.entry;
  const size_t r = ResourceIndex(entry.descriptor.resource);
  lower_index_[r].erase(BoundKey{slot.klass, entry.descriptor.lower, entry.id});
  upper_index_[r].erase(BoundKey{slot.klass, entry.descriptor.upper, entry.id});
  auto& counts = class_counts_[r];
  const auto count_it = counts.find(slot.klass);
  if (--count_it->second == 0) {
    counts.erase(count_it);
  }
  by_id_.erase(entry.id);
  slot.entry = Entry{};  // drops the handler closure promptly
  slot.klass = 0;
  slot.occupied = false;
  free_.push_back(index);
}

Status RequestTable::Cancel(RequestId id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return NotFoundError("no such request");
  }
  const uint32_t index = it->second;
  const Entry& entry = slots_[index].entry;
  std::vector<uint32_t>& bucket = BucketFor(ResourceIndex(entry.descriptor.resource), entry.app);
  bucket.erase(std::find(bucket.begin(), bucket.end(), index));
  Release(index);
  return OkStatus();
}

std::vector<RequestTable::Entry> RequestTable::TakeViolated(ResourceId resource, AppId app,
                                                            double level) {
  const size_t r = ResourceIndex(resource);
  if (app >= buckets_[r].size()) {
    return {};
  }
  std::vector<uint32_t>& bucket = buckets_[r][app];
  std::vector<uint32_t> violated;
  size_t keep = 0;
  for (const uint32_t index : bucket) {
    if (Violates(slots_[index].entry.descriptor, level)) {
      violated.push_back(index);
    } else {
      bucket[keep++] = index;
    }
  }
  bucket.resize(keep);
  // Slot recycling scrambles in-bucket index order; the observable contract
  // is ascending id (the order the old full-scan map iteration produced).
  std::sort(violated.begin(), violated.end(), [this](uint32_t a, uint32_t b) {
    return slots_[a].entry.id < slots_[b].entry.id;
  });
  std::vector<Entry> result;
  result.reserve(violated.size());
  for (const uint32_t index : violated) {
    // Moving the entry only pilfers the handler closure; the scalar fields
    // Release() keys its index erasures on are still intact.
    result.push_back(std::move(slots_[index].entry));
    Release(index);
  }
  return result;
}

std::vector<RequestTable::Entry> RequestTable::EntriesFor(AppId app, ResourceId resource) const {
  const std::vector<uint32_t>* bucket = FindBucket(ResourceIndex(resource), app);
  if (bucket == nullptr) {
    return {};
  }
  std::vector<Entry> matching;
  matching.reserve(bucket->size());
  for (const uint32_t index : *bucket) {
    matching.push_back(slots_[index].entry);
  }
  std::sort(matching.begin(), matching.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  return matching;
}

void RequestTable::CollectViolatedApps(ResourceId resource, double level,
                                       std::vector<AppId>* out) const {
  // The index is class-contiguous, so "the whole table" is one scoped scan
  // per live class.
  for (const auto& [klass, count] : class_counts_[ResourceIndex(resource)]) {
    (void)count;
    CollectViolatedApps(resource, klass, level, out);
  }
}

void RequestTable::CollectViolatedApps(ResourceId resource, uint32_t klass, double level,
                                       std::vector<AppId>* out) const {
  const size_t r = ResourceIndex(resource);
  // Windows with lower > level: everything past (klass, level, max id) up
  // to the end of the class's key range in the lower-bound order.
  const auto& lower = lower_index_[r];
  for (auto it =
           lower.upper_bound(BoundKey{klass, level, std::numeric_limits<RequestId>::max()});
       it != lower.end() && std::get<0>(it->first) == klass; ++it) {
    out->push_back(slots_[it->second].entry.app);
  }
  // Windows with upper < level: everything in the class's range before
  // (klass, level, 0) in the upper-bound order.
  const auto& upper = upper_index_[r];
  const auto stop = upper.lower_bound(BoundKey{klass, level, 0});
  for (auto it =
           upper.lower_bound(BoundKey{klass, -std::numeric_limits<double>::infinity(), 0});
       it != stop; ++it) {
    out->push_back(slots_[it->second].entry.app);
  }
}

}  // namespace odyssey
