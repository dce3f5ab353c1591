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
//   * Bucket queue.  Pending events live in a BucketQueue
//     (event_core.h, the calendar queue both engines share): per-time
//     FIFO buckets under a heap of distinct times, so the common
//     same-time push appends in O(1).  The drain walks the front bucket
//     in place, so a same-time event scheduled by a running handler
//     lands behind `head` and runs in the same pass.
//
// Determinism contract (unchanged from the std::function engine):
// events execute in (time, insertion) order, a total order, so a run is
// a pure function of its inputs — two runs with the same seed produce
// identical traces, which the golden-trace regression tests pin down to
// the exact (time, event) sequence.  BucketQueue drains same-time
// events in push order, which is exactly insertion order.

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
    queue_.push(time, Event{nullptr, 0, 0, 0,
                            slab_.store(std::forward<F>(fn)), kCallback});
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
    queue_.push(time, Event{sink, message, from, to, link, kDeliver});
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
  std::size_t pending() const { return queue_.size(); }

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

  template <typename T>
  struct IsStdFunction : std::false_type {};
  template <typename R, typename... Args>
  struct IsStdFunction<std::function<R(Args...)>> : std::true_type {};

  void check_time(double time) const {
    LHG_CHECK(time == time && time >= now_,
              "Simulator: time {} is NaN or before now {}", time, now_);
  }

  void drain_front(double deadline, bool bounded);
  void dispatch(const Event& ev);  // execute exactly one event

  BucketQueue<Event> queue_;
  CallbackSlab<> slab_;
  double now_ = 0.0;
  std::int64_t processed_ = 0;
  const obs::SimObs* obs_ = nullptr;
};

}  // namespace lhg::flooding
