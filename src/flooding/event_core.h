// Event storage shared by both engines (event_sim.h, shard_sim.h).
//
//   * CallbackSlab<Args...> — slab free-list storage for type-erased
//     callables invoked as fn(Args...).  A callable whose captures fit
//     in kInlineCapacity bytes (alignment <= max_align_t,
//     nothrow-movable) is stored inline in a pooled 64-byte slot; only
//     oversized captures fall back to the heap (counted).  Slots are
//     carved from 256-slot chunks with stable addresses and recycle
//     through a free list, so steady-state traffic performs zero
//     allocations per event, and a callback may schedule further
//     callbacks (carving new chunks) while it runs in place.
//
//   * EventHeap<Ref> — a 4-ary min-heap over refs carrying `time` and
//     `seq`, ordered by (time, seq).  `seq` is unique per heap, so the
//     order is total and the heap's arity cannot change which ref pops
//     next — only how fast it is found.
//
//   * BucketQueue<Event> — the calendar queue under the serial engine,
//     every shard of the sharded engine and the sharded control lane.
//     Pending events live in per-time FIFO buckets; an EventHeap orders
//     only the *distinct* pending times, keyed by bucket creation seq.
//     Simulated protocols schedule in long runs of equal timestamps
//     (every hop of a fixed-latency flood lands on the same instant), so
//     the common push appends to the last bucket in O(1) and the heap
//     sift is paid once per time run, not once per event; all-distinct
//     timestamps (per-send jitter) degrade to one-event buckets, i.e. an
//     ordinary heap over pooled, recycled bucket storage.  A bucket is
//     abandoned as soon as a different time is pushed and never appended
//     to again, so buckets sharing a time drain in creation order, which
//     is exactly push order.  Buckets are addressed by index: a push made
//     while the front bucket drains may reallocate the pool, and a
//     same-time push lands behind the front bucket's `head`.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace lhg::flooding {

template <typename... Args>
class CallbackSlab {
 public:
  /// Captures up to this size are stored inline in a slot.
  static constexpr std::size_t kInlineCapacity = 48;

  /// Moves `fn` into a slot and returns the slot id.
  template <typename F>
  std::int32_t store(F&& fn) {
    using Fn = std::decay_t<F>;
    const std::int32_t id = alloc();
    Payload& cb = slot(id).callback;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(cb.storage)) Fn(std::forward<F>(fn));
      cb.invoke = [](void* p, Args... args) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(p));
        (*f)(args...);
        f->~Fn();
      };
      cb.destroy = [](void* p) {
        std::launder(reinterpret_cast<Fn*>(p))->~Fn();
      };
    } else {
      ++heap_allocations_;
      Fn* owned = new Fn(std::forward<F>(fn));
      std::memcpy(cb.storage, &owned, sizeof owned);
      cb.invoke = [](void* p, Args... args) {
        Fn* f = *reinterpret_cast<Fn**>(p);
        (*f)(args...);
        delete f;
      };
      cb.destroy = [](void* p) { delete *reinterpret_cast<Fn**>(p); };
    }
    return id;
  }

  /// Runs the callable in slot `id` in place, destroys it and frees the
  /// slot.
  void invoke(std::int32_t id, Args... args) {
    Payload& cb = slot(id).callback;
    cb.invoke(cb.storage, args...);
    release(id);
  }

  /// Destroys a callable that will never run (queue teardown).
  void destroy(std::int32_t id) {
    Payload& cb = slot(id).callback;
    cb.destroy(cb.storage);
    release(id);
  }

  /// Slots ever carved — the storage high-water mark.
  std::int64_t slots_created() const { return slots_created_; }
  /// Callables that exceeded kInlineCapacity.
  std::int64_t heap_allocations() const { return heap_allocations_; }

 private:
  struct Payload {
    void (*invoke)(void* storage, Args... args);  // call, then destroy
    void (*destroy)(void* storage);               // destroy only
    alignas(std::max_align_t) unsigned char storage[kInlineCapacity];
  };
  /// One 64-byte slot; `next_free` threads the free list through
  /// vacant slots.
  struct Slot {
    union {
      Payload callback;
      std::int32_t next_free;
    };
  };
  static_assert(sizeof(Slot) <= 64, "callback slot should stay one cache line");

  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  Slot& slot(std::int32_t id) {
    const auto i = static_cast<std::uint32_t>(id);
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  std::int32_t alloc() {
    if (free_head_ >= 0) {
      const std::int32_t id = free_head_;
      free_head_ = slot(id).next_free;
      return id;
    }
    const auto id = static_cast<std::int32_t>(slots_created_);
    if ((static_cast<std::uint32_t>(id) & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    ++slots_created_;
    return id;
  }
  void release(std::int32_t id) {
    slot(id).next_free = free_head_;
    free_head_ = id;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::int32_t free_head_ = -1;
  std::int64_t slots_created_ = 0;
  std::int64_t heap_allocations_ = 0;
};

template <typename Ref>
class EventHeap {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Ref& front() const { return heap_.front(); }
  auto begin() const { return heap_.begin(); }
  auto end() const { return heap_.end(); }

  void push(const Ref& ref) {
    // Hole-based sift-up: parents slide down into the hole and the ref
    // lands once.
    std::size_t i = heap_.size();
    heap_.push_back(ref);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(ref, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ref;
  }

  void pop() {
    const Ref last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    // Sift `last` down from the root among up to four children.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

 private:
  static bool before(const Ref& a, const Ref& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  std::vector<Ref> heap_;
};

template <typename Event>
class BucketQueue {
 public:
  bool empty() const { return heap_.empty(); }
  /// Events pushed and not yet taken or popped with their bucket.
  std::size_t size() const { return size_; }

  /// Hot path: almost every push lands on the same timestamp as the
  /// previous one (the next hop round) and appends in O(1).
  void push(double time, const Event& ev) {
    ++size_;
    if (last_ != kNoBucket && buckets_[last_].time == time) {
      buckets_[last_].events.push_back(ev);
      return;
    }
    enqueue_slow(time, ev);
  }

  /// Time of the front bucket (the earliest, oldest); requires !empty().
  double front_time() const { return heap_.front().time; }

  /// Unexecuted events of the front bucket, in push order.  Invalidated
  /// by the next push.
  std::span<const Event> front() const {
    return unexecuted(buckets_[heap_.front().bucket]);
  }

  /// Moves the front bucket's next unexecuted event into `ev` and
  /// returns true, or returns false once that bucket is exhausted.  The
  /// bucket stays at the front until pop_front(), so a same-time push
  /// made in between is taken by a later call.
  bool take_front(Event& ev) {
    Bucket& bucket = buckets_[heap_.front().bucket];
    if (bucket.head == bucket.events.size()) return false;
    ev = bucket.events[bucket.head++];
    --size_;
    return true;
  }

  /// Drops the front bucket with its untaken events and recycles its
  /// storage; returns how many events it held in total.
  std::size_t pop_front() {
    const std::uint32_t b = heap_.front().bucket;
    heap_.pop();
    Bucket& bucket = buckets_[b];
    const std::size_t held = bucket.events.size();
    size_ -= held - bucket.head;
    bucket.events.clear();
    bucket.head = 0;
    if (last_ == b) last_ = kNoBucket;
    free_.push_back(b);
    return held;
  }

  /// Calls fn(ev) for every pending event (teardown of callables that
  /// never ran).
  template <typename F>
  void for_each_pending(F&& fn) const {
    for (const BucketRef& ref : heap_) {
      for (const Event& ev : unexecuted(buckets_[ref.bucket])) fn(ev);
    }
  }

 private:
  /// FIFO of pending events at one timestamp; `head` is the next one to
  /// take.  Recycled buckets are empty with head 0.
  struct Bucket {
    double time;
    std::uint32_t head = 0;
    std::vector<Event> events;
  };

  /// Heap entry with the sort key inline, so sifts compare and move 24
  /// bytes and never dereference the bucket pool.
  struct BucketRef {
    double time;
    std::uint64_t seq;  // bucket creation sequence: the FIFO tie-break
    std::uint32_t bucket;
  };
  static_assert(sizeof(BucketRef) <= 24, "bucket ref should stay compact");

  static constexpr std::uint32_t kNoBucket = 0xffffffffu;

  static std::span<const Event> unexecuted(const Bucket& bucket) {
    return std::span<const Event>(bucket.events).subspan(bucket.head);
  }

  void enqueue_slow(double time, const Event& ev) {
    std::uint32_t b = static_cast<std::uint32_t>(buckets_.size());
    if (free_.empty()) {
      buckets_.push_back(Bucket{time, 0, {}});
    } else {
      b = free_.back();
      free_.pop_back();
      buckets_[b].time = time;
    }
    heap_.push(BucketRef{time, next_seq_++, b});
    buckets_[b].events.push_back(ev);
    last_ = b;
  }

  std::vector<Bucket> buckets_;       // pooled; index-stable
  std::vector<std::uint32_t> free_;   // recycled bucket indices
  EventHeap<BucketRef> heap_;         // distinct pending times
  std::uint32_t last_ = kNoBucket;    // append target cache
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lhg::flooding
