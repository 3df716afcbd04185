#include "src/trace/trace_recorder.h"

#include "src/core/contract.h"

namespace odyssey {

TraceRecorder::TraceRecorder(size_t capacity) {
  ODY_ASSERT(capacity > 0, "trace recorder needs a nonzero capacity");
  events_.resize(capacity);
}

void TraceRecorder::Record(const TraceEvent& event) {
  ++recorded_;
  if (size_ == events_.size()) {
    ++dropped_;
    return;
  }
  events_[size_] = event;
  ++size_;
  category_counts_[static_cast<int>(event.category)] += 1;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  return std::vector<TraceEvent>(events_.begin(),
                                 events_.begin() + static_cast<std::ptrdiff_t>(size_));
}

void TraceRecorder::Clear() {
  size_ = 0;
  recorded_ = 0;
  dropped_ = 0;
  for (uint64_t& count : category_counts_) {
    count = 0;
  }
}

}  // namespace odyssey
