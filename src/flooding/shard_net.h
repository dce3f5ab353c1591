// Sharded message-passing network: the FaultModel (fault_model.h) —
// the same crash / link / partition state, epoch-guarded windows,
// admission checks and chaos draw sequence as BasicNetwork — bound to
// the ShardedSimulator's phase-structured parallelism.
//
// The state split is the whole design:
//
//   * Shared, read-only during windows — crash flags, link failures,
//     partition state, the per-link latency table.  The FaultModel's
//     mutators run only in the simulator's serial phases: their timed
//     forms schedule *control events*, which the engine runs between
//     windows, so lanes never observe a mutation mid-window; the
//     engine's barrier structure is the synchronization.  Every direct
//     mutator LHG_DCHECKs `in_serial_phase()` (`check_serial_phase`).
//
//   * Per-shard, owned by one lane — NetworkStats (cache-line padded,
//     merged in shard-index order at report time: int64 sums, so the
//     aggregate is bit-identical at any shard/thread count) and the
//     per-shard obs::SimObs taps.
//
//   * Per-directed-arc, owned by the sender's shard — the chaos RNG.
//     The single-queue Network draws every chaos decision from ONE
//     generator in global execution order, which no parallel engine
//     can reproduce.  Here the FaultModel's channels are directed arcs
//     a = (link << 1) | (from > to), each drawing from its own
//     `Rng::stream(arc_seed, a)`; all draws for an arc happen on the
//     sending node's shard in canonical execution order, so lossy runs
//     are invariant across shard/thread counts — but NOT draw-for-draw
//     comparable to the single-queue engine (the same kind of
//     documented semantic change as the calendar-queue engine rewrite;
//     DESIGN.md §17).  The Gilbert–Elliott chain state is likewise
//     per-arc rather than per-link.  Chaos-free runs with kFixed /
//     kUniformPerLink latencies consume no per-arc draws at all (the
//     per-link table is drawn from the caller's rng in canonical edge
//     order, exactly like BasicNetwork), so those runs ARE bit-equal to
//     the single-queue simulator — the golden-parity contract pinned by
//     tests/test_shard_sim.cc.
//
// Lookahead: `min_cross_shard_latency()` scans every arc whose
// endpoints land in different shards and returns the minimum latency a
// message can take across them (the latency floor `base` under
// kUniformPerSend).  The constructor installs it as the simulator's
// lookahead; zero-latency cross-shard links are rejected there — a
// conservative window needs strictly positive lookahead.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "flooding/fault_model.h"
#include "flooding/shard_sim.h"

namespace lhg::flooding {

template <typename Topology>
class ShardedNetwork final
    : public FaultModel<Topology, ShardedNetwork<Topology>>,
      private ShardedSimulator::DeliverSink {
  using Base = FaultModel<Topology, ShardedNetwork>;
  friend Base;

 public:
  /// `topology` and `sim` must outlive the network.  `rng` seeds the
  /// kUniformPerLink latency table (drawn here in canonical edge order,
  /// bit-equal to BasicNetwork) and, when the channel needs draws, one
  /// 64-bit value deriving the per-arc streams.
  ShardedNetwork(const Topology& topology, ShardedSimulator& sim,
                 LatencySpec latency, core::Rng& rng, const ChaosSpec& chaos)
      : Base(topology, latency, rng, chaos,
             static_cast<std::size_t>(topology.num_edges()) * 2),
        sim_(&sim) {
    if (chaos.enabled() ||
        latency.kind == LatencySpec::Kind::kUniformPerSend) {
      // Per-directed-arc streams: arc (link, direction) draws only on
      // the sending shard, in that shard's canonical execution order.
      const std::uint64_t arc_seed = rng();
      const auto arcs =
          static_cast<std::int64_t>(topology.num_edges()) * 2;
      arc_rng_.resize(static_cast<std::size_t>(arcs));
      core::parallel_for(arcs, /*grain=*/4096,
                         [&](std::int64_t a, int /*lane*/) {
                           arc_rng_[static_cast<std::size_t>(a)] =
                               core::Rng::stream(arc_seed,
                                                 static_cast<std::uint64_t>(a));
                         });
    }
    stats_.resize(static_cast<std::size_t>(sim.num_shards()));
    obs_.assign(static_cast<std::size_t>(sim.num_shards()), nullptr);
    sim_->set_deliver_sink(this);
    const double la = min_cross_shard_latency();
    if (la < std::numeric_limits<double>::infinity()) sim_->set_lookahead(la);
  }

  ShardedSimulator& simulator() { return *sim_; }

  /// Per-shard observability taps (empty to disable; otherwise size ==
  /// num_shards()).  Shard s's tap is only touched by lane-owned shard
  /// s, plus control-phase events for nodes it owns.
  void set_obs(std::vector<const obs::SimObs*> per_shard) {
    LHG_CHECK(per_shard.empty() ||
                  per_shard.size() == obs_.size(),
              "ShardedNetwork: {} obs taps for {} shards", per_shard.size(),
              obs_.size());
    if (!per_shard.empty()) obs_ = std::move(per_shard);
  }

  /// Minimum latency a message can experience on a cross-shard arc
  /// (+infinity when every edge is shard-internal).  The conservative
  /// window length; recompute and re-install after changing latency
  /// classes.
  double min_cross_shard_latency() const {
    const Topology& topology = this->topology();
    return core::parallel_reduce(
        topology.num_nodes(), /*grain=*/1024,
        std::numeric_limits<double>::infinity(),
        [&](std::int64_t begin, std::int64_t end, int /*lane*/) {
          double local = std::numeric_limits<double>::infinity();
          for (std::int64_t u = begin; u < end; ++u) {
            const auto uid = static_cast<core::NodeId>(u);
            const std::int32_t deg = topology.degree(uid);
            for (std::int32_t i = 0; i < deg; ++i) {
              const core::NodeId v = topology.neighbor(uid, i);
              if (sim_->shard_of(uid) == sim_->shard_of(v)) continue;
              local = std::min(
                  local, this->link_floor(topology.incident_edge(uid, i)));
            }
          }
          return local;
        },
        [](double a, double b) { return std::min(a, b); });
  }

  /// Handler invoked on delivery: (executing shard, receiver, sender,
  /// message id).  The shard index is the receiver's owner — handlers
  /// index per-shard protocol state with it, race-free.
  using ReceiveHandler = std::function<void(std::int32_t, core::NodeId,
                                            core::NodeId, std::int64_t)>;
  void set_receive_handler(ReceiveHandler handler) {
    on_receive_ = std::move(handler);
  }

  // --- Send path (window context; `shard` = the executing shard) ---------

  bool send(std::int32_t shard, core::NodeId from, core::NodeId to,
            std::int64_t message) {
    const std::int32_t link = this->topology().edge_index(from, to);
    LHG_CHECK(link >= 0, "send: ({}, {}) is not a link of the overlay", from,
              to);
    return send_link(shard, from, to, link, message);
  }

  /// Same semantics as BasicNetwork::send_link; `shard` must be the
  /// shard owning `from` (the executing lane).
  bool send_link(std::int32_t shard, core::NodeId from, core::NodeId to,
                 std::int32_t link, std::int64_t message) {
    LHG_DCHECK(link == this->topology().edge_index(from, to),
               "send_link: {} is not the edge id of ({}, {})", link, from, to);
    LHG_DCHECK(sim_->shard_of(from) == shard,
               "send_link: node {} sent from shard {} but lives on shard {}",
               from, shard, sim_->shard_of(from));
    const double now = sim_->now(shard);
    return this->transmit(
        stats_[static_cast<std::size_t>(shard)].stats,
        obs_[static_cast<std::size_t>(shard)], now, from, to, link,
        arc_index(link, from, to), [&](double delay) {
          sim_->schedule_deliver_at(shard, now + delay, from, to, link,
                                    message);
        });
  }

  /// Shard-index-ordered sum of the per-shard counters: bit-identical
  /// at any shard and thread count.
  NetworkStats stats() const {
    NetworkStats total;
    for (const PaddedStats& p : stats_) {
      total.sent += p.stats.sent;
      total.delivered += p.stats.delivered;
      total.lost += p.stats.lost;
      total.duplicated += p.stats.duplicated;
      total.blocked_sender_crashed += p.stats.blocked_sender_crashed;
      total.blocked_link_down += p.stats.blocked_link_down;
      total.blocked_partition += p.stats.blocked_partition;
      total.dropped_receiver_crashed += p.stats.dropped_receiver_crashed;
      total.dropped_link_down += p.stats.dropped_link_down;
      total.dropped_partition += p.stats.dropped_partition;
    }
    return total;
  }

  std::int64_t messages_sent() const { return stats().sent; }
  std::int64_t messages_lost() const { return stats().lost; }

 private:
  struct alignas(64) PaddedStats {
    NetworkStats stats;
  };

  void on_sharded_deliver(std::int32_t shard, std::int32_t from,
                          std::int32_t to, std::int32_t link,
                          std::int64_t message) override {
    if (this->admit_delivery(stats_[static_cast<std::size_t>(shard)].stats,
                             obs_[static_cast<std::size_t>(shard)],
                             sim_->now(shard), from, to, link) &&
        on_receive_) {
      on_receive_(shard, to, from, message);
    }
  }

  /// Directed arc id: the per-sender-direction RNG/GE stream index.
  static std::size_t arc_index(std::int32_t link, core::NodeId from,
                               core::NodeId to) {
    return (static_cast<std::size_t>(link) << 1) |
           static_cast<std::size_t>(from > to ? 1 : 0);
  }

  // --- FaultModel hooks ---------------------------------------------------
  // Timed mutations are control events: serial, between windows.
  template <typename F>
  void schedule_serial(double at, F&& fn) {
    sim_->schedule_control_at(
        at, [fn = std::forward<F>(fn)](std::int32_t /*env*/) mutable { fn(); });
  }
  void check_serial_phase([[maybe_unused]] const char* what) const {
    LHG_DCHECK(sim_->in_serial_phase(),
               "ShardedNetwork: {} outside a serial phase", what);
  }
  void trace_fault(obs::TraceKind kind, core::NodeId node) const {
    const obs::SimObs* obs =
        obs_[static_cast<std::size_t>(sim_->shard_of(node))];
    if (obs != nullptr) obs->event(sim_->env_now(), kind, node);
  }
  core::Rng& channel_rng(std::size_t arc) { return arc_rng_[arc]; }

  ShardedSimulator* sim_;
  ReceiveHandler on_receive_;

  // Per-directed-arc streams, owned by the sender's shard; allocated
  // only when the channel draws at all.
  std::vector<core::Rng> arc_rng_;

  // Per-shard state, owned by one lane each.
  std::vector<PaddedStats> stats_;
  std::vector<const obs::SimObs*> obs_;
};

}  // namespace lhg::flooding
