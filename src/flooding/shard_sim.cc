#include "flooding/shard_sim.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/parallel.h"

namespace lhg::flooding {

namespace {

// Contiguous blocks of ceil(n / S) ids, S clamped to [1, n].
std::vector<std::int32_t> contiguous_blocks(std::int32_t num_nodes,
                                            std::int32_t num_shards) {
  LHG_CHECK(num_nodes > 0, "ShardedSimulator: need at least one node, got {}",
            num_nodes);
  LHG_CHECK(num_shards > 0, "ShardedSimulator: shard count {} must be > 0",
            num_shards);
  const std::int32_t shards = std::min(num_shards, num_nodes);
  const std::int32_t block = (num_nodes + shards - 1) / shards;
  std::vector<std::int32_t> owner(static_cast<std::size_t>(num_nodes));
  for (std::int32_t v = 0; v < num_nodes; ++v) {
    owner[static_cast<std::size_t>(v)] = v / block;
  }
  return owner;
}

}  // namespace

ShardedSimulator::ShardedSimulator(std::vector<std::int32_t> owner,
                                   std::int32_t num_shards)
    : owner_(std::move(owner)) {
  LHG_CHECK(!owner_.empty() &&
                owner_.size() <= static_cast<std::size_t>(INT32_MAX),
            "ShardedSimulator: owner table of {} nodes", owner_.size());
  LHG_CHECK(num_shards > 0, "ShardedSimulator: shard count {} must be > 0",
            num_shards);
  for (std::size_t v = 0; v < owner_.size(); ++v) {
    LHG_CHECK(owner_[v] >= 0 && owner_[v] < num_shards,
              "ShardedSimulator: node {} owned by shard {}, outside [0, {})",
              v, owner_[v], num_shards);
  }
  shards_.resize(static_cast<std::size_t>(num_shards));
  for (Shard& sh : shards_) {
    sh.outbox.resize(shards_.size());
  }
  node_seq_.assign(owner_.size(), 0);
}

ShardedSimulator::ShardedSimulator(std::int32_t num_nodes,
                                   std::int32_t num_shards)
    : ShardedSimulator(contiguous_blocks(num_nodes, num_shards),
                       std::min(num_shards, num_nodes)) {}

ShardedSimulator::~ShardedSimulator() {
  // run_until can leave unexecuted events behind; destroy their
  // callables exactly as the serial engine's destructor does.  Between
  // windows `run`/`late` are empty and outboxes hold only deliver
  // events, so shard queues and the control lane cover everything.
  for (Shard& sh : shards_) {
    sh.queue.for_each_pending([&sh](const Event& ev) {
      if (ev.kind == kCallback) sh.slab.destroy(ev.link);
    });
  }
  control_.for_each_pending(
      [this](std::int32_t id) { control_slab_.destroy(id); });
}

void ShardedSimulator::enqueue(Shard& sh, double time, const Event& ev) {
  // Same-time events created while their timestamp is being drained
  // slot into the remaining execution by key (the bucket was already
  // collected); everything else takes the calendar-queue path.
  if (sh.draining && time == sh.drain_time) {
    sh.late.push_back(ev);
    std::push_heap(sh.late.begin(), sh.late.end(), later_key);
    return;
  }
  sh.queue.push(time, ev);
}

ShardedSimulator::Event ShardedSimulator::late_pop(Shard& sh) {
  std::pop_heap(sh.late.begin(), sh.late.end(), later_key);
  const Event ev = sh.late.back();
  sh.late.pop_back();
  return ev;
}

void ShardedSimulator::dispatch(Shard& sh, std::int32_t shard_idx,
                                const Event& ev) {
  ++sh.processed;
  if (sh.obs != nullptr) {
    // Note: the serial engine's sim_bucket_events histogram is
    // deliberately NOT recorded here — per-drain bucket sizes depend on
    // how timestamps split across shards, so they are not S-invariant.
    sh.obs->add(ev.kind == kDeliver ? sh.obs->sim_deliver_events
                                    : sh.obs->sim_callback_events);
  }
  if (ev.kind == kDeliver) {
    // Canonical origin of anything this handler schedules: the acting
    // (receiving) node.
    sh.origin = ev.to;
    sink_->on_sharded_deliver(shard_idx, ev.from, ev.to, ev.link, ev.message);
  } else {
    sh.origin = ev.from;
    // Invoke in place — slab chunk addresses are stable, so events the
    // callback schedules (which may carve new chunks) cannot move it.
    sh.slab.invoke(ev.link, shard_idx);
  }
  sh.origin = kEnvOrigin;
}

void ShardedSimulator::drain_window(std::int32_t s, double wend,
                                    double deadline, bool bounded) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  while (!sh.queue.empty()) {
    const double t = sh.queue.front_time();
    if (t >= wend) break;
    if (bounded && t > deadline) break;
    // Collect every bucket holding this timestamp and key-sort once:
    // the canonical (origin, seq) order is total, so the sorted run is
    // independent of how insertions were split across buckets.
    sh.now = t;
    sh.drain_time = t;
    sh.run.clear();
    while (!sh.queue.empty() && sh.queue.front_time() == t) {
      const auto events = sh.queue.front();
      sh.run.insert(sh.run.end(), events.begin(), events.end());
      sh.queue.pop_front();
    }
    std::sort(sh.run.begin(), sh.run.end(),
              [](const Event& a, const Event& b) { return a.key < b.key; });
    // Execute as a two-way merge against the late heap: handlers may
    // schedule same-time events, which must slot among the unexecuted
    // remainder by key (keys only grow along a causal chain, so a late
    // event never sorts before its already-executed creator).
    sh.draining = true;
    std::size_t i = 0;
    while (i < sh.run.size() || !sh.late.empty()) {
      const bool take_late =
          !sh.late.empty() &&
          (i >= sh.run.size() || sh.late.front().key < sh.run[i].key);
      const Event ev = take_late ? late_pop(sh) : sh.run[i++];
      dispatch(sh, s, ev);
    }
    sh.draining = false;
  }
}

void ShardedSimulator::exchange() {
  // The one sanctioned cross-shard touch point: destinations pull each
  // source's outbox in ascending shard order, at the barrier, after all
  // lanes have quiesced.  Each box is already in creation order and
  // every entry's time is >= the closed window's end, so merged events
  // land in future buckets and the canonical key ordering is preserved.
  const std::int32_t shards = num_shards();
  for (std::int32_t d = 0; d < shards; ++d) {
    Shard& dst = shards_[static_cast<std::size_t>(d)];
    for (std::int32_t s = 0; s < shards; ++s) {
      if (s == d) continue;
      Shard& src = peer_shard(s);  // lint: allow(cross-shard-state): barrier exchange after lanes quiesce
      std::vector<Event>& box = src.outbox[static_cast<std::size_t>(d)];
      for (const Event& ev : box) enqueue(dst, ev.time, ev);
      box.clear();
    }
  }
}

void ShardedSimulator::run_control(double tctl) {
  // All control events at this timestamp, in scheduling order.  They
  // run in a serial phase, so handlers may mutate shared network state
  // and schedule further control or node events.
  env_now_ = tctl;
  while (!control_.empty() && control_.front_time() == tctl) {
    std::int32_t id = 0;
    while (control_.take_front(id)) {
      control_slab_.invoke(id, kEnvOrigin);
      ++env_processed_;
    }
    control_.pop_front();
  }
}

void ShardedSimulator::run_impl(double deadline, bool bounded) {
  LHG_CHECK(!in_windows_, "ShardedSimulator: re-entrant run()");
  const std::int32_t shards = num_shards();
  for (;;) {
    double tmin = std::numeric_limits<double>::infinity();
    for (const Shard& sh : shards_) {
      if (!sh.queue.empty()) tmin = std::min(tmin, sh.queue.front_time());
    }
    const double tctl = control_.empty()
                            ? std::numeric_limits<double>::infinity()
                            : control_.front_time();
    const double next = std::min(tmin, tctl);
    if (next == std::numeric_limits<double>::infinity()) break;
    if (bounded && next > deadline) break;
    if (tctl <= tmin) {
      // Control runs strictly before any shard reaches its timestamp:
      // at equal times the serial engine would also run the (earlier-
      // scheduled) setup event first.
      run_control(tctl);
      continue;
    }
    // Conservative window [tmin, wend): a cross-shard message created
    // at t >= tmin arrives at t + lookahead >= wend, and no shared
    // state changes before tctl, so lanes are independent inside it.
    const double wend = std::min(tmin + lookahead_, tctl);
    window_end_ = wend;
    in_windows_ = true;
    if (shards == 1) {
      drain_window(0, wend, deadline, bounded);
    } else {
      core::parallel_for(shards, /*grain=*/1,
                         [&](std::int64_t s, int /*lane*/) {
                           drain_window(static_cast<std::int32_t>(s), wend,
                                        deadline, bounded);
                         });
    }
    in_windows_ = false;
    exchange();
  }
  if (bounded) {
    for (Shard& sh : shards_) {
      if (sh.now < deadline) sh.now = deadline;
    }
    if (env_now_ < deadline) env_now_ = deadline;
  }
}

std::int64_t ShardedSimulator::events_processed() const {
  std::int64_t total = env_processed_;
  for (const Shard& sh : shards_) total += sh.processed;
  return total;
}

std::size_t ShardedSimulator::pending() const {
  std::size_t total = control_.size();
  for (const Shard& sh : shards_) total += sh.queue.size();
  return total;
}

std::int64_t ShardedSimulator::slots_created() const {
  std::int64_t total = control_slab_.slots_created();
  for (const Shard& sh : shards_) total += sh.slab.slots_created();
  return total;
}

std::int64_t ShardedSimulator::callback_heap_allocations() const {
  std::int64_t total = control_slab_.heap_allocations();
  for (const Shard& sh : shards_) total += sh.slab.heap_allocations();
  return total;
}

}  // namespace lhg::flooding
