// Allocation-free typed-event discrete-event simulator.
//
// The flooding experiments need virtual time (message latencies, crash
// times) without wall-clock nondeterminism, at millions of events per
// trial.  The engine therefore avoids the classic
// std::function-per-event design (one heap allocation and one indirect
// call per message) in favour of typed events over pooled storage:
//
//   * Two event kinds.  A *deliver* event — the per-message hot path —
//     is a plain (sink, from, to, link, message) record dispatched
//     straight into the registered DeliverSink (the Network), with no
//     type erasure at all.  Its payload is stored inline in the event
//     queue, so scheduling and executing a message performs no
//     allocation and chases no pointers.
//
//   * Slab free-list callback storage.  Everything else (crashes, link
//     failures, timers, protocol bootstraps) is a *callback* event
//     whose callable lives in a pooled CallbackSlab slot (event_core.h,
//     shared with the sharded engine): inline when its captures fit in
//     kInlineCallbackCapacity bytes, on the heap (counted, and never hit
//     by in-tree code) otherwise.  Steady-state traffic recycles slots
//     through the slab's free list, so it performs zero allocations per
//     event (`slots_created()` exposes the high-water mark for tests to
//     pin this).
//
//   * Bucket queue.  Pending events live in per-time FIFO buckets; a
//     cache-friendly 4-ary heap (EventHeap, event_core.h) orders only
//     the *distinct* pending times, not the individual events.
//     Simulated protocols schedule in long runs of equal timestamps
//     (every hop of a fixed-latency flood lands on the same instant), so
//     the common push appends to the current bucket in O(1) and the
//     common pop is a linear walk — the O(log pending) heap sift is paid
//     once per time run, not once per event.  Workloads with
//     all-distinct timestamps (per-send jitter) degrade gracefully to
//     one-event buckets, i.e. to an ordinary heap with pooled, recycled
//     bucket storage.
//
// Determinism contract (unchanged from the std::function engine):
// events execute in (time, insertion) order, a total order, so a run is
// a pure function of its inputs — two runs with the same seed produce
// identical traces, which the golden-trace regression tests pin down to
// the exact (time, event) sequence.  Within one timestamp the FIFO
// bucket preserves insertion order directly; across buckets that share
// a timestamp (a bucket is abandoned whenever a different time is
// scheduled, and never appended to again) the creation-sequence
// tie-break drains them in creation order, which is again exactly
// insertion order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "flooding/event_core.h"
#include "obs/obs.h"

namespace lhg::flooding {

class Simulator {
 public:
  /// Captures up to this size (and alignment <= max_align_t) are stored
  /// inline in the event slot; larger callables heap-allocate (counted
  /// by `callback_heap_allocations()`).
  static constexpr std::size_t kInlineCallbackCapacity =
      CallbackSlab<>::kInlineCapacity;

  /// Legacy alias; any callable (not just std::function) can be
  /// scheduled.
  using Callback = std::function<void()>;

  /// Receiver of first-class deliver events.  `link` is whatever the
  /// scheduler passed (the Network uses Graph::edge_index ids).
  class DeliverSink {
   public:
    virtual void on_deliver(std::int32_t from, std::int32_t to,
                            std::int32_t link, std::int64_t message) = 0;

   protected:
    ~DeliverSink() = default;
  };

  Simulator() = default;
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.  Starts at 0.
  double now() const { return now_; }

  /// Observability tap (may be null; default).  Counts executed events
  /// by kind and the size of each drained time bucket; recording never
  /// reorders or perturbs the event stream.
  void set_obs(const obs::SimObs* obs) { obs_ = obs; }

  /// Schedules `fn` (any callable) to run at absolute virtual time
  /// `time` (>= now()).  Fails a contract on times in the past or NaN,
  /// or on an empty std::function.
  template <typename F>
  void schedule_at(double time, F&& fn) {
    check_time(time);
    using Fn = std::decay_t<F>;
    if constexpr (IsStdFunction<Fn>::value) {
      LHG_CHECK(static_cast<bool>(fn), "Simulator::schedule_at: empty callback");
    }
    Event ev;
    ev.kind = kCallback;
    ev.link = slab_.store(std::forward<F>(fn));
    enqueue(time, ev);
  }

  /// Schedules `fn` to run `delay` (>= 0) after now().
  template <typename F>
  void schedule_in(double delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules delivery of `message` from `from` to `to` over `link` at
  /// absolute time `time`; at that instant `sink->on_deliver` runs with
  /// exactly these arguments.  This is the allocation-free per-message
  /// path: an inline queue record, no slab, no type erasure.
  void schedule_deliver_at(double time, DeliverSink* sink, std::int32_t from,
                           std::int32_t to, std::int32_t link,
                           std::int64_t message) {
    check_time(time);
    LHG_DCHECK(sink != nullptr, "Simulator::schedule_deliver_at: null sink");
    Event ev;
    ev.sink = sink;
    ev.message = message;
    ev.from = from;
    ev.to = to;
    ev.link = link;
    ev.kind = kDeliver;
    enqueue(time, ev);
  }

  void schedule_deliver_in(double delay, DeliverSink* sink, std::int32_t from,
                           std::int32_t to, std::int32_t link,
                           std::int64_t message) {
    schedule_deliver_at(now_ + delay, sink, from, to, link, message);
  }

  /// Runs events in (time, insertion) order until the queue drains.
  void run();

  /// Runs events with time <= `deadline`; later events stay queued and
  /// now() ends at max(now, deadline-capped last executed time).
  void run_until(double deadline);

  /// Number of events executed so far (deliver + callback).
  std::int64_t events_processed() const { return processed_; }

  /// Number of events still queued.
  std::size_t pending() const { return pending_; }

  /// Callback slots ever carved from the slab — the storage high-water
  /// mark.  Deliver events never touch the slab (their payload rides in
  /// the bucket queue), and steady-state callback traffic recycles
  /// slots through the free list, so this stays flat while events flow;
  /// tests hook it to prove the hot paths perform zero allocations per
  /// event.
  std::int64_t slots_created() const { return slab_.slots_created(); }

  /// Callbacks whose captures exceeded kInlineCallbackCapacity and fell
  /// back to an individual heap allocation.
  std::int64_t callback_heap_allocations() const {
    return slab_.heap_allocations();
  }

 private:
  enum Kind : std::uint32_t { kDeliver = 0, kCallback = 1 };

  /// One queued event.  Deliver events carry their whole payload here;
  /// callback events use `link` as the slab slot id and leave
  /// sink/message/from/to dead.
  struct Event {
    DeliverSink* sink;
    std::int64_t message;
    std::int32_t from;
    std::int32_t to;
    std::int32_t link;  // deliver: link id; callback: slab slot id
    std::uint32_t kind;
  };
  static_assert(sizeof(Event) <= 32, "queued event should stay compact");

  /// FIFO of every pending event at one timestamp; storage is pooled
  /// and recycled through `bucket_free_`.
  struct Bucket {
    double time;
    std::uint32_t head = 0;  // next event to execute
    std::vector<Event> events;
  };

  /// Bucket-heap entry with the sort key inline, so sifts compare and
  /// move 24 bytes and never dereference the bucket pool.
  struct BucketRef {
    double time;
    std::uint64_t seq;  // bucket creation sequence: the FIFO tie-break
    std::uint32_t bucket;
  };
  static_assert(sizeof(BucketRef) <= 24, "bucket ref should stay compact");

  template <typename T>
  struct IsStdFunction : std::false_type {};
  template <typename R, typename... Args>
  struct IsStdFunction<std::function<R(Args...)>> : std::true_type {};

  void check_time(double time) const {
    LHG_CHECK(time == time && time >= now_,
              "Simulator: time {} is NaN or before now {}", time, now_);
  }

  /// Hot path: almost every push lands on the same timestamp as the
  /// previous one (the next hop round) and appends in O(1).
  void enqueue(double time, const Event& ev) {
    ++pending_;
    if (last_bucket_ != kNoBucket && buckets_[last_bucket_].time == time) {
      buckets_[last_bucket_].events.push_back(ev);
      return;
    }
    enqueue_slow(time, ev);
  }

  void enqueue_slow(double time, const Event& ev);

  static constexpr std::uint32_t kNoBucket = 0xffffffffu;

  void drain_front(double deadline, bool bounded);
  void dispatch(const Event& ev);  // execute exactly one event

  std::vector<Bucket> buckets_;             // pooled; index-stable
  std::vector<std::uint32_t> bucket_free_;  // recycled bucket indices
  EventHeap<BucketRef> bucket_heap_;        // distinct pending times
  std::uint32_t last_bucket_ = kNoBucket;   // append target cache
  std::uint64_t next_bucket_seq_ = 0;
  std::size_t pending_ = 0;

  CallbackSlab<> slab_;
  double now_ = 0.0;
  std::int64_t processed_ = 0;
  const obs::SimObs* obs_ = nullptr;
};

}  // namespace lhg::flooding
