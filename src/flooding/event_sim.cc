#include "flooding/event_sim.h"

namespace lhg::flooding {

Simulator::~Simulator() {
  // Destroy callables of events that never executed (drained queues
  // leave nothing; run_until can).
  for (const BucketRef& ref : bucket_heap_) {
    const Bucket& bucket = buckets_[ref.bucket];
    for (std::uint32_t i = bucket.head;
         i < static_cast<std::uint32_t>(bucket.events.size()); ++i) {
      const Event& ev = bucket.events[i];
      if (ev.kind == kCallback) slab_.destroy(ev.link);
    }
  }
}

void Simulator::enqueue_slow(double time, const Event& ev) {
  // Open a fresh bucket for this timestamp.  Several buckets may share
  // a time (pushes alternating between timestamps abandon and reopen);
  // the creation-seq tie-break drains them in creation order, which —
  // because an abandoned bucket never receives further appends — is
  // exactly global insertion order.
  std::uint32_t b;
  if (!bucket_free_.empty()) {
    b = bucket_free_.back();
    bucket_free_.pop_back();
    buckets_[b].time = time;
    buckets_[b].head = 0;
    buckets_[b].events.clear();
  } else {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.push_back(Bucket{time, 0, {}});
  }
  bucket_heap_.push({time, next_bucket_seq_++, b});
  buckets_[b].events.push_back(ev);
  last_bucket_ = b;
}

void Simulator::dispatch(const Event& ev) {
  ++processed_;
  --pending_;
  if (obs_ != nullptr) {
    obs_->add(ev.kind == kDeliver ? obs_->sim_deliver_events
                                  : obs_->sim_callback_events);
  }
  if (ev.kind == kDeliver) {
    // The whole payload is in `ev` — copied off the queue, so the sink
    // is free to schedule follow-up events.
    ev.sink->on_deliver(ev.from, ev.to, ev.link, ev.message);
  } else {
    // Invoke in place — slab addresses are stable, so events the
    // callback schedules (which may carve new chunks) cannot move it.
    slab_.invoke(ev.link);
  }
}

void Simulator::drain_front(double deadline, bool bounded) {
  // Drain buckets in (time, creation) order.  All access goes through
  // indices: dispatch may open new buckets (reallocating `buckets_`) or
  // append same-time events behind `head` of the bucket being drained.
  while (!bucket_heap_.empty()) {
    const std::uint32_t b = bucket_heap_.front().bucket;
    if (bounded && buckets_[b].time > deadline) break;
    now_ = buckets_[b].time;
    while (buckets_[b].head < buckets_[b].events.size()) {
      const Event ev = buckets_[b].events[buckets_[b].head++];
      dispatch(ev);
    }
    bucket_heap_.pop();
    if (obs_ != nullptr) {
      obs_->observe(obs_->sim_bucket_events,
                    static_cast<std::int64_t>(buckets_[b].events.size()));
    }
    if (last_bucket_ == b) last_bucket_ = kNoBucket;
    buckets_[b].events.clear();
    buckets_[b].head = 0;
    bucket_free_.push_back(b);
  }
}

void Simulator::run() { drain_front(0.0, /*bounded=*/false); }

void Simulator::run_until(double deadline) {
  drain_front(deadline, /*bounded=*/true);
  if (now_ < deadline) now_ = deadline;
}

}  // namespace lhg::flooding
