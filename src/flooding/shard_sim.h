// Sharded deterministic discrete-event simulator: one large run spread
// over S per-shard calendar queues driven by core::parallel lanes.
//
// The single-queue Simulator (event_sim.h) executes events in (time,
// insertion) order — inherently serial, since "insertion" depends on
// the global execution history.  This engine instead executes in
// *canonical* order
//
//     (time, origin node, per-origin creation seq)
//
// where the origin of an event is the node whose handler created it
// (the environment — failure plans, protocol bootstraps — is origin -1
// and sorts first, matching the serial engine's setup-runs-first
// semantics).  The key is computable at creation time from quantities
// that are themselves invariant under sharding, so by induction the
// full execution order — and therefore every result — is bit-identical
// at any shard count and any thread count (DESIGN.md §17 has the
// argument).
//
// Which node lives on which shard is one table, `owner`, handed in by
// the caller: lhg::subtree_partition for an ImplicitLhg (whole abstract
// subtrees per shard, so almost no arc crosses), or contiguous id blocks
// for any other topology.  The key names no shard, so the table moves
// only cost — cross-shard traffic and lane balance — never a result.
//
// Conservative PDES windowing (the classic lookahead recipe): between
// barriers, shard s drains only events with time < window_end, where
//
//     window_end = min(t_min + lookahead, next control time)
//
// and `lookahead` is the minimum link latency over cross-shard arcs
// (ShardedNetwork computes it; must be > 0).  A cross-shard message
// created at time t >= t_min arrives at t + latency >= window_end, so
// buffering it in a per-(source, dest) outbox and merging at the
// barrier — destinations pull boxes in ascending source-shard order,
// each box already in creation order — cannot miss its execution slot.
// Within a window shards only touch their own state; control events
// (crash/recover/link/partition mutations) run serially between
// windows, so shared network state is read-only while lanes are hot —
// the engine is race-free by phase structure, not by locks.  All
// cross-shard access in the engine goes through `peer_shard()`, which
// the determinism linter flags outside the audited barrier-exchange
// sites.
//
// Queue mechanics per shard: a BucketQueue (event_core.h, the calendar
// queue the serial engine and the control lane also use) plus a
// CallbackSlab.  Two additions: the drained buckets of one timestamp are
// key-sorted once before execution, and same-time events created
// *during* the drain go to a small per-shard min-heap merged against the
// sorted remainder — "slot by key among the unexecuted events", the
// parallel analogue of the serial engine's append-behind-head.
//
// What is NOT invariant: the per-drained-bucket size histogram
// (sim.bucket_events) depends on how timestamps split across shards,
// so this engine deliberately never records it; and chaos / per-send
// latency draws come from per-directed-arc Rng streams
// (Rng::stream(seed, arc)) instead of one shared generator, so lossy
// sharded runs are S-invariant but not draw-for-draw comparable to the
// single-queue engine (same documented-semantic-change precedent as
// the PR 3 engine rewrite).

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "flooding/event_core.h"
#include "obs/obs.h"

namespace lhg::flooding {

class ShardedSimulator {
 public:
  /// Same inline-capture budget as the single-queue engine.
  static constexpr std::size_t kInlineCallbackCapacity =
      CallbackSlab<std::int32_t>::kInlineCapacity;

  /// Origin id of environment-scheduled events (setup, failure plans);
  /// sorts before every node origin at the same timestamp.
  static constexpr std::int32_t kEnvOrigin = -1;

  /// Receiver of deliver events; `shard` is the executing (receiver-
  /// owning) shard, so sinks can index per-shard state race-free.
  class DeliverSink {
   public:
    virtual void on_sharded_deliver(std::int32_t shard, std::int32_t from,
                                    std::int32_t to, std::int32_t link,
                                    std::int64_t message) = 0;

   protected:
    ~DeliverSink() = default;
  };

  /// Node v lives on shard `owner[v]`; every entry must lie in
  /// [0, num_shards), and a shard may own no node at all.  Which table
  /// is used never changes a result (canonical keys name nodes, not
  /// shards) — only how much traffic crosses the barrier.
  ShardedSimulator(std::vector<std::int32_t> owner, std::int32_t num_shards);

  /// The partition for topologies without a tree plan: nodes
  /// [0, num_nodes) split into contiguous blocks of ceil(n / S), with
  /// the shard count clamped to [1, num_nodes].
  ShardedSimulator(std::int32_t num_nodes, std::int32_t num_shards);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::int32_t num_shards() const {
    return static_cast<std::int32_t>(shards_.size());
  }
  std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(owner_.size());
  }
  std::int32_t shard_of(std::int32_t node) const {
    return owner_[static_cast<std::size_t>(node)];
  }

  void set_deliver_sink(DeliverSink* sink) { sink_ = sink; }

  /// Conservative window length: the minimum latency over cross-shard
  /// arcs (ShardedNetwork::min_cross_shard_latency).  Must be > 0;
  /// +infinity (the default) means "no cross-shard traffic exists" and
  /// windows stretch to the next control event.
  void set_lookahead(double lookahead) {
    LHG_CHECK(lookahead > 0.0,
              "ShardedSimulator: lookahead {} must be > 0 (zero-latency "
              "cross-shard links cannot be windowed conservatively)",
              lookahead);
    lookahead_ = lookahead;
  }
  double lookahead() const { return lookahead_; }

  /// Per-shard observability taps (size must equal num_shards(), or
  /// empty to disable).  Counts executed events by kind; the bucket-
  /// size histogram is intentionally not recorded (not S-invariant).
  void set_obs(std::vector<const obs::SimObs*> per_shard) {
    LHG_CHECK(per_shard.empty() ||
                  per_shard.size() == shards_.size(),
              "ShardedSimulator: {} obs taps for {} shards", per_shard.size(),
              shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].obs = per_shard.empty() ? nullptr : per_shard[s];
    }
  }

  /// True outside parallel windows (setup, control phases, after run):
  /// the phases in which shared state may be mutated.
  bool in_serial_phase() const { return !in_windows_; }

  /// Virtual time of one shard (its last drained timestamp).
  double now(std::int32_t shard) const {
    return shards_[static_cast<std::size_t>(shard)].now;
  }
  /// Virtual time of the control lane (last control event / deadline).
  double env_now() const { return env_now_; }

  /// Schedules a control event: `fn()` runs serially at `time`, between
  /// windows, before any shard executes an event with time >= `time`.
  /// Callable only from serial phases (setup or other control events).
  template <typename F>
  void schedule_control_at(double time, F&& fn) {
    LHG_CHECK(in_serial_phase(),
              "ShardedSimulator: control events must be scheduled from a "
              "serial phase, not from inside a window");
    LHG_CHECK(time == time && time >= env_now_,
              "ShardedSimulator: control time {} is NaN or before now {}",
              time, env_now_);
    control_.push(time, control_slab_.store(std::forward<F>(fn)));
  }

  /// Schedules `fn(shard)` to run at `time` on the shard owning
  /// `owner`.  `ctx` is the calling context: the executing shard index
  /// inside a window (must own `owner`), or kEnvOrigin from a serial
  /// phase.  The event's canonical origin is the acting node of the
  /// creating event (or the environment).
  template <typename F>
  void schedule_node_at(std::int32_t ctx, double time, std::int32_t owner,
                        F&& fn) {
    LHG_CHECK_RANGE(owner, num_nodes());
    Shard& dst = shards_[static_cast<std::size_t>(shard_of(owner))];
    Event ev{make_key(ctx), 0, 0.0, owner, owner, -1, kCallback};
    if (ctx == kEnvOrigin) {
      LHG_CHECK(in_serial_phase(),
                "ShardedSimulator: env-context scheduling inside a window");
      check_time(time, env_now_);
    } else {
      LHG_DCHECK(shard_of(owner) == ctx,
                 "ShardedSimulator: node {} scheduled from shard {} but owned "
                 "by shard {}",
                 owner, ctx, shard_of(owner));
      check_time(time, dst.now);
    }
    ev.link = dst.slab.store(std::forward<F>(fn));
    enqueue(dst, time, ev);
  }

  /// Schedules delivery of `message` over `link` at absolute `time`.
  /// From a window context `ctx` (the sender's shard), a cross-shard
  /// delivery is buffered in the outbox and merged at the barrier — its
  /// time must be >= the current window end, which the lookahead
  /// contract guarantees.  From a serial phase pass ctx = kEnvOrigin.
  void schedule_deliver_at(std::int32_t ctx, double time, std::int32_t from,
                           std::int32_t to, std::int32_t link,
                           std::int64_t message) {
    Event ev{make_key(ctx), message, 0.0, from, to, link, kDeliver};
    const std::int32_t dst = shard_of(to);
    if (ctx == kEnvOrigin) {
      LHG_CHECK(in_serial_phase(),
                "ShardedSimulator: env-context scheduling inside a window");
      check_time(time, env_now_);
      enqueue(shards_[static_cast<std::size_t>(dst)], time, ev);
      return;
    }
    Shard& src = shards_[static_cast<std::size_t>(ctx)];
    check_time(time, src.now);
    if (dst == ctx) {
      enqueue(src, time, ev);
      return;
    }
    LHG_DCHECK(time >= window_end_,
               "ShardedSimulator: cross-shard delivery at {} inside window "
               "ending {} — lookahead too large for this link",
               time, window_end_);
    ev.time = time;
    src.outbox[static_cast<std::size_t>(dst)].push_back(ev);
  }

  /// Runs all events (window loop + control phases) until every queue
  /// drains.
  void run() { run_impl(0.0, /*bounded=*/false); }

  /// Runs events with time <= `deadline`; later events stay queued.
  void run_until(double deadline) { run_impl(deadline, /*bounded=*/true); }

  /// Events executed so far (deliver + callback + control) — the same
  /// total at any shard or thread count.
  std::int64_t events_processed() const;

  /// Events still queued across all shards and the control lane, read
  /// from a serial phase (outboxes are empty outside windows).
  std::size_t pending() const;

  /// Callback slots ever carved across all shard slabs (plus the
  /// control slab) — the zero-allocation high-water mark, as in
  /// event_sim.h.
  std::int64_t slots_created() const;
  std::int64_t callback_heap_allocations() const;

 private:
  enum Kind : std::uint32_t { kDeliver = 0, kCallback = 1 };

  /// One queued event.  `key` is the canonical tie-break
  /// ((origin + 1) << 32 | seq); `time` is only meaningful for outbox
  /// entries (bucket entries inherit their bucket's time).  Callback
  /// events carry the owner node in `from`/`to` and the slab slot id in
  /// `link`.
  struct Event {
    std::uint64_t key;
    std::int64_t message;
    double time;
    std::int32_t from;
    std::int32_t to;
    std::int32_t link;
    std::uint32_t kind;
  };
  static_assert(sizeof(Event) <= 40, "queued event should stay compact");
  /// Min-heap order of `Shard::late` by canonical key.
  static bool later_key(const Event& a, const Event& b) {
    return a.key > b.key;
  }

  struct Shard {
    BucketQueue<Event> queue;

    // Drain state.
    double now = 0.0;
    double drain_time = 0.0;
    bool draining = false;
    std::vector<Event> run;   // merged, key-sorted events of one timestamp
    std::vector<Event> late;  // min-heap by key: same-time mid-drain inserts
    std::int32_t origin = kEnvOrigin;  // acting node while dispatching

    CallbackSlab<std::int32_t> slab;

    // Cross-shard deliveries created this window, one box per dest.
    std::vector<std::vector<Event>> outbox;

    std::int64_t processed = 0;
    const obs::SimObs* obs = nullptr;
  };

  /// Canonical key of an event created in context `ctx`: the acting
  /// node's (origin, seq) pair, or the env counter.  Packs into 64 bits
  /// so bucket sorting compares one integer.
  std::uint64_t make_key(std::int32_t ctx) {
    if (ctx == kEnvOrigin) {
      return static_cast<std::uint64_t>(env_seq_for_key_++);
    }
    Shard& sh = shards_[static_cast<std::size_t>(ctx)];
    const auto origin = static_cast<std::uint32_t>(sh.origin + 1);
    const std::uint32_t seq =
        node_seq_[static_cast<std::size_t>(sh.origin)]++;
    return (static_cast<std::uint64_t>(origin) << 32) | seq;
  }

  /// `now` is the scheduling context's clock: env_now_ or a shard's.
  static void check_time(double time, double now) {
    LHG_CHECK(time == time && time >= now,
              "ShardedSimulator: time {} is NaN or before now {}", time, now);
  }

  /// Cross-shard accessor.  Every use outside the audited barrier-
  /// exchange path is a determinism bug; the linter flags call sites.
  // lint: allow(cross-shard-state): accessor definition, not a use —
  // call sites carry their own justifications.
  Shard& peer_shard(std::int32_t s) {
    return shards_[static_cast<std::size_t>(s)];
  }

  void enqueue(Shard& sh, double time, const Event& ev);
  Event late_pop(Shard& sh);
  void dispatch(Shard& sh, std::int32_t shard_idx, const Event& ev);
  void drain_window(std::int32_t s, double wend, double deadline, bool bounded);
  void exchange();
  void run_control(double tctl);
  void run_impl(double deadline, bool bounded);

  std::vector<std::int32_t> owner_;  // node -> shard
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> node_seq_;  // per-origin creation counters
  std::uint64_t env_seq_for_key_ = 0;    // env-origin key counter
  DeliverSink* sink_ = nullptr;
  double lookahead_ = std::numeric_limits<double>::infinity();
  double env_now_ = 0.0;
  double window_end_ = 0.0;
  bool in_windows_ = false;

  BucketQueue<std::int32_t> control_;  // slab slot ids, scheduling order
  CallbackSlab<std::int32_t> control_slab_;
  std::int64_t env_processed_ = 0;
};

}  // namespace lhg::flooding
