// A cancellable, stable-ordered event queue for discrete-event simulation.
//
// Events scheduled for the same virtual time fire in scheduling order
// (FIFO), which keeps simulations deterministic.  The heap is hand-rolled
// and *indexable*: every event's slot tracks its node's heap position, so
// Cancel() physically removes the node in O(log N) instead of tombstoning
// it.  At 100k+ connections the workload is dominated by schedule-then-
// cancel churn (every granted window-of-tolerance request schedules a
// timeout it usually cancels); tombstones would keep all of that dead
// weight in the heap, growing it without bound and taxing every push and
// pop with the deeper tree.
//
// Layout — a steady-state schedule/fire or schedule/cancel allocates
// nothing:
//
//   * the heap holds 24-byte nodes {when, seq, slot}; sifts move only these;
//   * callbacks live in a slab of slots recycled through a LIFO free list
//     (the hottest slot is reused first).  Each slot records its node's
//     heap position and a generation that is bumped whenever the slot is
//     released, by a fire or a cancel;
//   * an EventHandle is {anchor, slot, generation}.  The anchor is one
//     reference-counted record per queue that the queue clears when it is
//     destroyed, so a handle that outlives its queue goes inert; the
//     generation makes a handle whose event already fired or was cancelled
//     inert even after its slot holds a newer event.  The generation is 64
//     bits wide, so no run reuses a slot often enough to wrap it and let a
//     stale handle alias.  Simulations are thread-confined, so the count is
//     a plain integer;
//   * Callback is a move-only callable that stores captures of up to
//     Callback::kInlineSize bytes in place and boxes larger ones.
//
// Pop order is fully determined by the total order (when, seq), so the
// layout changes no observable event sequence — only the cost of
// maintaining it.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/contract.h"
#include "src/sim/time.h"

namespace odyssey {

class EventQueue;

// A handle that can cancel a pending event.  Copyable; all copies refer to
// the same underlying event.  A default-constructed handle is inert, and
// cancelling an already-fired or already-cancelled event, or one whose
// queue is gone, is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : anchor_(other.anchor_), slot_(other.slot_), generation_(other.generation_) {
    if (anchor_ != nullptr) {
      ++anchor_->refs;
    }
  }
  EventHandle(EventHandle&& other) noexcept
      : anchor_(std::exchange(other.anchor_, nullptr)),
        slot_(other.slot_),
        generation_(other.generation_) {}
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(anchor_, other.anchor_);
    slot_ = other.slot_;
    generation_ = other.generation_;
    return *this;
  }
  ~EventHandle() { Drop(anchor_); }

  // True if the event has neither fired nor been cancelled.
  inline bool pending() const;

  // Prevents the event from firing.  Safe to call at any point.
  inline void Cancel();

 private:
  friend class EventQueue;

  // Shared by a queue and every handle it issued; the queue nulls |queue|
  // on destruction, and whoever drops the last reference frees it.
  struct Anchor {
    EventQueue* queue = nullptr;
    size_t refs = 0;
  };

  EventHandle(Anchor* anchor, uint32_t slot, uint64_t generation)
      : anchor_(anchor), slot_(slot), generation_(generation) {
    ++anchor_->refs;
  }

  static void Drop(Anchor* anchor) {
    if (anchor != nullptr && --anchor->refs == 0) {
      Free(anchor);
    }
  }
  // Kept out of line: GCC's -Wuse-after-free cannot follow the count, and
  // with the delete inlined it pairs one handle's release with the next's.
  [[gnu::noinline]] static void Free(Anchor* anchor) { delete anchor; }

  Anchor* anchor_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t generation_ = 0;
};

// Min-heap of (time, sequence) -> callback.
class EventQueue {
 public:
  // A move-only void() callable.  Captures of up to kInlineSize bytes are
  // stored in place; larger (or over-aligned, or throwing-move) ones are
  // boxed on the heap.  The size covers every hot lambda: the audit tick
  // (48), the endpoint's flow continuation (40: this, the attempt's
  // shared_ptr and its next step), its timeout, retry and latency steps
  // (24), upcall batch delivery and link completion (8).  Move-only so a
  // handler is never copied behind the caller's back: copying one is a
  // compile error (tests/compile_fail/copy_event_callback.cc).
  class Callback {
   public:
    static constexpr size_t kInlineSize = 72;

    Callback() noexcept = default;

    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                          std::is_invocable_r_v<void, Fn&>>>
    Callback(F&& f) {  // NOLINT(runtime/explicit): lambdas convert implicitly
      if constexpr (kFitsInline<Fn>) {
        Emplace<Fn>(std::forward<F>(f));
      } else {
        Emplace<Boxed<Fn>>(Boxed<Fn>{std::make_unique<Fn>(std::forward<F>(f))});
      }
    }

    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    Callback(Callback&& other) noexcept { Take(other); }
    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        Reset();
        Take(other);
      }
      return *this;
    }
    ~Callback() { Reset(); }

    void operator()() {
      ODY_ASSERT(ops_ != nullptr, "calling an empty event callback");
      ops_->invoke(storage_);
    }

   private:
    // The two null entries mark the common case, a trivially copyable
    // capture (this, ids, times): it moves as its bytes and needs no
    // destruction, so a schedule and a fire make no call through them.
    struct Ops {
      void (*invoke)(void* self);
      // Move-constructs the callable at |to| from |from|, then destroys
      // |from|; null to copy |size| bytes instead.
      void (*relocate)(void* from, void* to) noexcept;
      void (*destroy)(void* self) noexcept;  // null if trivial
      size_t size;
    };

    template <typename Fn>
    struct Boxed {
      std::unique_ptr<Fn> fn;
      void operator()() { (*fn)(); }
    };

    static constexpr size_t kAlign = alignof(void*);

    template <typename Fn>
    static constexpr bool kFitsInline = sizeof(Fn) <= kInlineSize && alignof(Fn) <= kAlign &&
                                        std::is_nothrow_move_constructible_v<Fn>;

    template <typename Fn>
    static void Invoke(void* self) {
      (*static_cast<Fn*>(self))();
    }
    template <typename Fn>
    static void Relocate(void* from, void* to) noexcept {
      ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
      static_cast<Fn*>(from)->~Fn();
    }
    template <typename Fn>
    static void Destroy(void* self) noexcept {
      static_cast<Fn*>(self)->~Fn();
    }

    template <typename Fn>
    static constexpr Ops kOps = {
        &Invoke<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr : &Relocate<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &Destroy<Fn>,
        sizeof(Fn),
    };

    template <typename Fn, typename Arg>
    void Emplace(Arg&& arg) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<Arg>(arg));
      ops_ = &kOps<Fn>;
    }

    void Take(Callback& other) noexcept {
      ops_ = std::exchange(other.ops_, nullptr);
      if (ops_ == nullptr) {
        return;
      }
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.storage_, storage_);
      } else {
        std::memcpy(storage_, other.storage_, ops_->size);
      }
    }

    void Reset() noexcept {
      // Cleared first: a capture's destructor may look at this callback.
      const Ops* ops = std::exchange(ops_, nullptr);
      if (ops != nullptr && ops->destroy != nullptr) {
        ops->destroy(storage_);
      }
    }

    alignas(kAlign) unsigned char storage_[kInlineSize];
    const Ops* ops_ = nullptr;
  };

  EventQueue() : anchor_(new EventHandle::Anchor{this, 1}) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Detaches every outstanding handle before the pending callbacks (and
  // whatever they capture) are destroyed.
  ~EventQueue() {
    anchor_->queue = nullptr;
    EventHandle::Drop(anchor_);
  }

  // Schedules |cb| to fire at absolute virtual time |when|.  Both forms
  // take the callback by rvalue reference, so it moves once, into its slot.
  EventHandle ScheduleAt(Time when, Callback&& cb) {
    const uint32_t slot = Push(when, std::move(cb));
    return EventHandle(anchor_, slot, slots_[slot].generation);
  }

  // Schedules |cb| with no cancellation handle — the fire-and-forget form
  // for events that always run (batched upcall dispatch, periodic samplers).
  void PostAt(Time when, Callback&& cb) { Push(when, std::move(cb)); }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Same-timestamp determinism audit (DESIGN.md §13).  Everything the
  // simulation does at one virtual instant — batched upcall dispatch, a
  // waveform transition and the re-evaluation it triggers, N apps reacting
  // to one supply step — is a set of events at an identical timestamp, and
  // the whole determinism story rests on the tie-break key (when, seq)
  // ordering that set totally and reproducibly.  When an observer is
  // installed, RunNext reports every consecutively fired same-timestamp
  // pair as (when, previous seq, fired seq); the auditor (the fuzzer's
  // same-time-order oracle) verifies previous < fired, i.e. that ties pop
  // in scheduling order.  Unset, the audit costs one branch per pop.
  using TieObserver = std::function<void(Time when, uint64_t prev_seq, uint64_t seq)>;
  void set_tie_observer(TieObserver observer) { tie_observer_ = std::move(observer); }

#ifdef ODYSSEY_FUZZ_SELFTEST
  // Seeded mutation for the oracle pipeline's self-test: drops the
  // deterministic tie-break by popping same-timestamp events newest-first
  // (LIFO) instead of in scheduling order.  Still a total order — the run
  // stays reproducible — but the same-time-order oracle must catch it and
  // the shrinker must minimize the scenario around it.  Compiled only
  // under -DODYSSEY_FUZZ_SELFTEST; release builds carry no mutation code.
  void set_selftest_lifo_ties(bool enabled) { selftest_lifo_ties_ = enabled; }
#endif

  // Time of the earliest event; false if the queue is empty.
  bool PeekTime(Time* when) {
    if (heap_.empty()) {
      return false;
    }
    *when = heap_[0].when;
    return true;
  }

  // Pops and runs the earliest event, storing its time in |when|.
  // Returns false if the queue is empty.
  bool RunNext(Time* when) {
    if (heap_.empty()) {
      return false;
    }
    const Node node = heap_[0];
    RemoveAt(0);
    // Moved out of the slab before it runs: the callback may schedule
    // events that grow (and so relocate) the slab.
    Callback cb = Release(node.slot);  // fired; further Cancel() is a no-op
    // Virtual time is monotone: the heap must never yield an event earlier
    // than one it already fired (determinism depends on this ordering).
    ODY_ASSERT(node.when >= last_fired_, "event queue time went backwards");
    if (tie_observer_ && have_fired_ && node.when == last_fired_) {
      tie_observer_(node.when, last_fired_seq_, node.seq);
    }
    last_fired_ = node.when;
    last_fired_seq_ = node.seq;
    have_fired_ = true;
    *when = node.when;
    cb();
    return true;
  }

 private:
  friend class EventHandle;

  struct Node {
    Time when;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(Node) == 24, "heap nodes stay three words");

  struct Slot {
    Callback cb;
    uint32_t heap_pos = 0;
    uint64_t generation = 0;
  };

  bool Before(const Node& a, const Node& b) const {
    if (a.when != b.when) {
      return a.when < b.when;
    }
#ifdef ODYSSEY_FUZZ_SELFTEST
    if (selftest_lifo_ties_) {
      return a.seq > b.seq;
    }
#endif
    return a.seq < b.seq;
  }

  // Stores |cb| in a free slot and pushes its node; returns the slot.
  uint32_t Push(Time when, Callback&& cb) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].cb = std::move(cb);
    heap_.push_back(Node{when, next_seq_++, slot});
    SiftUp(static_cast<uint32_t>(heap_.size() - 1));
    return slot;
  }

  // Frees |slot| (its node already out of the heap) and hands back its
  // callback; bumping the generation detaches every handle to the event.
  Callback Release(uint32_t slot) {
    Slot& s = slots_[slot];
    Callback cb = std::move(s.cb);
    ++s.generation;
    free_.push_back(slot);
    return cb;
  }

  // Removes the node at |pos| (which must be valid): the last node takes
  // its place and sifts to wherever the heap property wants it.
  void RemoveAt(uint32_t pos) {
    const uint32_t last = static_cast<uint32_t>(heap_.size() - 1);
    if (pos != last) {
      heap_[pos] = heap_[last];
      heap_.pop_back();
      if (pos > 0 && Before(heap_[pos], heap_[(pos - 1) / 2])) {
        SiftUp(pos);
      } else {
        SiftDown(pos);
      }
    } else {
      heap_.pop_back();
    }
  }

  // Both sifts carry the node in hand and fill the hole it leaves, so each
  // level costs one node copy and one heap_pos store.
  void SiftUp(uint32_t pos) {
    const Node node = heap_[pos];
    while (pos > 0) {
      const uint32_t parent = (pos - 1) / 2;
      if (!Before(node, heap_[parent])) {
        break;
      }
      Place(pos, heap_[parent]);
      pos = parent;
    }
    Place(pos, node);
  }

  void SiftDown(uint32_t pos) {
    const Node node = heap_[pos];
    const size_t n = heap_.size();
    for (;;) {
      const size_t left = 2 * size_t{pos} + 1;
      if (left >= n) {
        break;
      }
      size_t best = left;
      if (left + 1 < n && Before(heap_[left + 1], heap_[left])) {
        best = left + 1;
      }
      if (!Before(heap_[best], node)) {
        break;
      }
      Place(pos, heap_[best]);
      pos = static_cast<uint32_t>(best);
    }
    Place(pos, node);
  }

  void Place(uint32_t pos, const Node& node) {
    heap_[pos] = node;
    slots_[node.slot].heap_pos = pos;
  }

  bool Pending(uint32_t slot, uint64_t generation) const {
    return slots_[slot].generation == generation;
  }

  // Cancellation entry point, reached through EventHandle::Cancel() for a
  // pending event.  The callback is destroyed last, once the queue is
  // consistent again, since its captures' destructors may schedule.
  void Cancel(uint32_t slot) {
    RemoveAt(slots_[slot].heap_pos);
    Callback dead = Release(slot);
  }

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  // LIFO: the hottest slot is reused first
  EventHandle::Anchor* anchor_;
  uint64_t next_seq_ = 0;
  Time last_fired_ = 0;
  uint64_t last_fired_seq_ = 0;
  bool have_fired_ = false;
  TieObserver tie_observer_;
#ifdef ODYSSEY_FUZZ_SELFTEST
  bool selftest_lifo_ties_ = false;
#endif
};

inline bool EventHandle::pending() const {
  return anchor_ != nullptr && anchor_->queue != nullptr &&
         anchor_->queue->Pending(slot_, generation_);
}

inline void EventHandle::Cancel() {
  if (pending()) {
    anchor_->queue->Cancel(slot_);
  }
}

}  // namespace odyssey

#endif  // SRC_SIM_EVENT_QUEUE_H_
