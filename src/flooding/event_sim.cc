#include "flooding/event_sim.h"

namespace lhg::flooding {

Simulator::~Simulator() {
  // Destroy callables of events that never executed (drained queues
  // leave nothing; run_until can).
  queue_.for_each_pending([this](const Event& ev) {
    if (ev.kind == kCallback) slab_.destroy(ev.link);
  });
}

void Simulator::dispatch(const Event& ev) {
  ++processed_;
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
  // Drain buckets in (time, creation) order, walking each front bucket
  // in place: dispatch may append same-time events behind its head.
  // The bucket is popped only once finished, so a handler that throws
  // leaves the unexecuted rest for the destructor.
  while (!queue_.empty()) {
    const double time = queue_.front_time();
    if (bounded && time > deadline) break;
    now_ = time;
    Event ev{};
    while (queue_.take_front(ev)) dispatch(ev);
    const std::size_t held = queue_.pop_front();
    if (obs_ != nullptr) {
      obs_->observe(obs_->sim_bucket_events, static_cast<std::int64_t>(held));
    }
  }
}

void Simulator::run() { drain_front(0.0, /*bounded=*/false); }

void Simulator::run_until(double deadline) {
  drain_front(deadline, /*bounded=*/true);
  if (now_ < deadline) now_ = deadline;
}

}  // namespace lhg::flooding
