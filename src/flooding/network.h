// Message-passing network over a fixed overlay topology, on the
// single-queue Simulator.
//
// Nodes communicate only along the edges of an overlay graph.  The
// fault model — crash/recovery, link failures and flaps, partition
// windows, per-link latencies, the adversarial channel (ChaosSpec) and
// the robustness counters (NetworkStats) — is FaultModel
// (fault_model.h), shared with ShardedNetwork; its header states the
// semantics and the Rng draw order.  This class binds it to the
// Simulator: timed mutators are ordinary callback events, every chaos
// draw comes from the one generator passed in (so a run consumes it in
// global execution order), and the Gilbert–Elliott chain is per link.
//
// The overlay is a template parameter: `BasicNetwork<Topology>` needs
// only `num_nodes()`, `num_edges()` and `edge_index(u, v)` from it, so
// the same simulation runs over a materialized `core::Graph` (the
// `Network` alias, explicitly instantiated in network.cc) or over the
// storage-free `lhg::ImplicitLhg` view at n = 10^6+.
//
// All per-link state is edge-indexed: `edge_index` maps {u,v} to a
// dense id once per send, and latencies / failure flags / channel
// states are flat vectors over those ids, so the send path is
// branch-light and allocation-free; deliveries ride the Simulator's
// typed deliver events straight back into this class.

#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "core/check.h"
#include "core/graph.h"
#include "core/rng.h"
#include "flooding/event_sim.h"
#include "flooding/fault_model.h"

namespace lhg::flooding {

template <typename Topology>
class BasicNetwork final : public FaultModel<Topology, BasicNetwork<Topology>>,
                           private Simulator::DeliverSink {
  using Base = FaultModel<Topology, BasicNetwork>;
  friend Base;

 public:
  /// `topology` and `sim` must outlive the network.  `rng` is consumed
  /// for latency sampling and chaos draws (may be shared with the
  /// caller); with kUniformPerLink every link's latency is drawn here,
  /// in canonical edge order.
  BasicNetwork(const Topology& topology, Simulator& sim, LatencySpec latency,
               core::Rng& rng, const ChaosSpec& chaos = {})
      : Base(topology, latency, rng, chaos,
             static_cast<std::size_t>(topology.num_edges())),
        sim_(&sim),
        rng_(&rng) {}

  Simulator& simulator() { return *sim_; }

  /// Observability tap (may be null; default).  Mirrors NetworkStats
  /// into the metrics registry and emits send/drop/deliver/crash trace
  /// events; recording never draws from the Rng, so enabling it cannot
  /// change a run.
  void set_obs(const obs::SimObs* obs) { obs_ = obs; }

  /// Handler invoked on message delivery: (receiver, sender, message id).
  using ReceiveHandler =
      std::function<void(core::NodeId, core::NodeId, std::int64_t)>;
  void set_receive_handler(ReceiveHandler handler) {
    on_receive_ = std::move(handler);
  }

  /// Sends `message` from `from` to its neighbor `to`.  Throws if the
  /// nodes are not adjacent in the topology.  Returns false (and sends
  /// nothing) if the sender is crashed, the link is down, or an active
  /// partition separates the endpoints.  Counts one message on every
  /// actual transmission attempt.
  bool send(core::NodeId from, core::NodeId to, std::int64_t message) {
    const std::int32_t link = this->topology().edge_index(from, to);
    LHG_CHECK(link >= 0, "send: ({}, {}) is not a link of the overlay", from,
              to);
    return send_link(from, to, link, message);
  }

  /// Fast-path send for callers that already hold the dense edge id of
  /// {from, to} — e.g. protocols walking a CSR arc range with
  /// `arc_begin` / `edge_of_arc` or `incident_edge`.  Identical
  /// semantics to send(), minus the O(log deg) adjacency search.
  bool send_link(core::NodeId from, core::NodeId to, std::int32_t link,
                 std::int64_t message) {
    LHG_DCHECK(link == this->topology().edge_index(from, to),
               "send_link: {} is not the edge id of ({}, {})", link, from, to);
    return this->transmit(
        stats_, obs_, sim_->now(), from, to, link,
        static_cast<std::size_t>(link), [&](double delay) {
          sim_->schedule_deliver_in(delay, this, from, to, link, message);
        });
  }

  /// Robustness counters (see NetworkStats).
  const NetworkStats& stats() const { return stats_; }

  std::int64_t messages_sent() const { return stats_.sent; }

  /// Transmissions dropped by the loss model so far.
  std::int64_t messages_lost() const { return stats_.lost; }

 private:
  // Typed-event entry point: delivery-instant checks, then the handler.
  void on_deliver(std::int32_t from, std::int32_t to, std::int32_t link,
                  std::int64_t message) override {
    if (this->admit_delivery(stats_, obs_, sim_->now(), from, to, link) &&
        on_receive_) {
      on_receive_(to, from, message);
    }
  }

  // --- FaultModel hooks ---------------------------------------------------
  template <typename F>
  void schedule_serial(double at, F&& fn) {
    sim_->schedule_at(at, std::forward<F>(fn));
  }
  // Every event of the single queue runs serially.
  void check_serial_phase(const char* /*what*/) const {}
  void trace_fault(obs::TraceKind kind, core::NodeId node) const {
    if (obs_ != nullptr) obs_->event(sim_->now(), kind, node);
  }
  // One generator for every channel: draws in global execution order.
  core::Rng& channel_rng(std::size_t /*link*/) { return *rng_; }

  Simulator* sim_;
  core::Rng* rng_;
  NetworkStats stats_;
  const obs::SimObs* obs_ = nullptr;
  ReceiveHandler on_receive_;
};

/// The canonical materialized-overlay instantiation (the only one most
/// of the library uses); compiled once in network.cc.
using Network = BasicNetwork<core::Graph>;

extern template class BasicNetwork<core::Graph>;

}  // namespace lhg::flooding
