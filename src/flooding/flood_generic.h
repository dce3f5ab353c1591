// The flood family over any EdgeIndexedGraph topology.
//
// One rule — a node records its first copy, then relays it to its
// other neighbours — is written once here, as the serial relay kernel
// `detail::relay_first_copy`.  It owns the engine and network setup,
// the first-copy handler, the single bootstrap event and the result
// assembly; a protocol supplies only its forwarding rule
// `keep(self, v, hops)` as a template argument:
//
//   * flood                    — always;
//   * probabilistic_flood      — a coin per non-sender neighbour
//                                (protocols.cc);
//   * spanning_tree_multicast  — v is self's BFS-tree child
//                                (protocols.cc).
//
// `sharded_flood` (the sharded engine) and `reliable_broadcast` (sends
// on ReliableLink) keep their own forward loops but share the
// first-copy record and the result assembly.  `sharded_flood` runs an
// `lhg::ImplicitLhg` on its abstract-subtree partition
// (lhg/partition.h) and every other topology on contiguous id blocks;
// the results are the same either way.
//
// The kernel needs only degree / neighbor enumeration and dense edge
// ids from the overlay, so it runs over the materialized `core::Graph`
// and over the storage-free `lhg::ImplicitLhg` view — the path that
// floods million-node overlays without materializing an edge.  Edge
// ids agree between the two forms (lhg/implicit.h), so the per-link
// state inside BasicNetwork is identical either way and the results
// are bit-for-bit equal (pinned by tests/test_implicit.cc).

#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "core/graph_concept.h"
#include "flooding/protocols.h"
#include "flooding/shard_net.h"
#include "lhg/implicit.h"
#include "lhg/partition.h"

namespace lhg::flooding {

namespace detail {

/// A result with no node delivered yet.
inline void init_delivery(DisseminationResult& result, core::NodeId n) {
  result.delivery_time.assign(static_cast<std::size_t>(n), -1.0);
  result.delivery_hops.assign(static_cast<std::size_t>(n), -1);
}

/// Records `self`'s first copy, received at `now` over `hops` hops.
/// Returns false for a later copy, which the caller absorbs.
inline bool record_first_copy(DisseminationResult& result, core::NodeId self,
                              double now, std::int32_t hops) {
  auto& t = result.delivery_time[static_cast<std::size_t>(self)];
  if (t >= 0.0) return false;
  t = now;
  result.delivery_hops[static_cast<std::size_t>(self)] = hops;
  return true;
}

/// Fills the aggregate DisseminationResult fields from per-node state;
/// `alive(u)` says whether node u was alive at the end of the run.
template <typename Alive>
void finalize_dissemination(DisseminationResult& result, Alive alive) {
  result.alive_nodes = 0;
  result.delivered_alive = 0;
  result.completion_time = 0.0;
  result.completion_hops = 0;
  for (std::size_t u = 0; u < result.delivery_time.size(); ++u) {
    if (!alive(static_cast<core::NodeId>(u))) continue;
    ++result.alive_nodes;
    if (result.delivery_time[u] >= 0.0) {
      ++result.delivered_alive;
      result.completion_time =
          std::max(result.completion_time, result.delivery_time[u]);
      result.completion_hops =
          std::max(result.completion_hops, result.delivery_hops[u]);
    }
  }
}

/// Result assembly after an engine-driven run, on either engine: the
/// network and engine counters, the obs output, the aggregate fields.
template <typename Net, typename Sim>
void assemble_result(DisseminationResult& result, const Net& net,
                     const Sim& sim, const obs::Runtime& obs_rt) {
  result.messages_sent = net.messages_sent();
  result.events_processed = sim.events_processed();
  result.net = net.stats();
  result.metrics = obs_rt.metrics_snapshot();
  if constexpr (std::is_same_v<Sim, ShardedSimulator>) {
    result.trace = obs_rt.node_ordered_trace_log();
  } else {
    result.trace = obs_rt.trace_log();
  }
  finalize_dissemination(result,
                         [&](core::NodeId u) { return net.is_alive(u); });
}

/// The first-copy relay behind flood, probabilistic_flood and
/// spanning_tree_multicast, on the single-queue engine.  The source
/// sends in one bootstrap event at t = 0; every node records the first
/// copy it receives and relays it, in neighbour order, to each
/// neighbour v other than the sender for which `keep(self, v, hops)`
/// holds (`hops` is self's hop count, 0 at the source).  Later copies
/// are absorbed.  `keep` is a template argument, so the send loop
/// makes no indirect call.  `rng` drives latency and chaos draws.
template <core::EdgeIndexedGraph Topology, typename Config, typename Keep>
DisseminationResult relay_first_copy(const Topology& topology,
                                     const Config& cfg, core::Rng& rng,
                                     const ChaosSpec& chaos,
                                     const FailurePlan& failures, Keep keep) {
  using core::NodeId;
  Simulator sim;
  BasicNetwork<Topology> net(topology, sim, cfg.latency, rng, chaos);
  obs::Runtime obs_rt(cfg.obs);
  sim.set_obs(obs_rt.obs());
  net.set_obs(obs_rt.obs());
  apply_failure_plan(net, failures);

  DisseminationResult result;
  init_delivery(result, topology.num_nodes());
  auto forward = [&](NodeId self, NodeId except, std::int32_t hops) {
    // Each send hands the network its dense edge id directly — no
    // per-neighbor adjacency search on the hot path.
    const std::int32_t deg = topology.degree(self);
    for (std::int32_t i = 0; i < deg; ++i) {
      const NodeId v = topology.neighbor(self, i);
      if (v != except && keep(self, v, hops)) {
        net.send_link(self, v, topology.incident_edge(self, i), hops);
      }
    }
  };
  // The duplicate check stays in the handler itself, ahead of the
  // relay loop's call: most deliveries are duplicates.
  net.set_receive_handler([&](NodeId self, NodeId from, std::int64_t hops) {
    const auto h = static_cast<std::int32_t>(hops) + 1;
    if (record_first_copy(result, self, sim.now(), h)) forward(self, from, h);
  });
  if (net.is_alive(cfg.source)) {
    record_first_copy(result, cfg.source, 0.0, 0);
    sim.schedule_at(0.0, [&] { forward(cfg.source, -1, 0); });
  }
  sim.run();
  assemble_result(result, net, sim, obs_rt);
  return result;
}

}  // namespace detail

/// The engine `sharded_flood` runs `topology` on at `shards` shards:
/// an ImplicitLhg split by abstract subtree (lhg::subtree_partition),
/// any other topology into contiguous id blocks.
template <core::EdgeIndexedGraph Topology>
ShardedSimulator sharded_simulator(const Topology& topology,
                                   std::int32_t shards) {
  if constexpr (std::is_same_v<Topology, ImplicitLhg>) {
    return ShardedSimulator(
        subtree_partition(topology.plan(), topology.layout(), shards),
        shards);
  } else {
    return ShardedSimulator(topology.num_nodes(), shards);
  }
}

/// Deterministic flooding on the sharded engine: the same protocol as
/// `flood`, with the node set split over `cfg.shards` calendar queues
/// driven by core::parallel lanes (shard_sim.h).  Results are
/// bit-identical at any shard and thread count; chaos-free runs with
/// kFixed / kUniformPerLink latencies are additionally bit-equal to the
/// single-queue `flood` (chaotic runs draw from per-arc streams —
/// shard_net.h documents the semantic difference).  The node -> shard
/// table comes from `sharded_simulator`; results do not depend on it.
/// The trace is merged by (time, acting node), so it too is the same
/// at every S and partition while no ring wraps.  The per-node result
/// arrays are written only by each node's owner shard, so the handler
/// needs no synchronization beyond the engine's phase structure.
template <core::EdgeIndexedGraph Topology>
DisseminationResult sharded_flood(const Topology& topology,
                                  const FloodConfig& cfg,
                                  const FailurePlan& failures = {}) {
  using core::NodeId;
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());
  LHG_CHECK(cfg.shards >= 1, "sharded_flood: shard count {} must be >= 1",
            cfg.shards);
  ShardedSimulator sim = sharded_simulator(topology, cfg.shards);
  core::Rng rng(cfg.seed);
  ShardedNetwork<Topology> net(topology, sim, cfg.latency, rng, cfg.chaos);
  obs::Runtime obs_rt(cfg.obs, sim.num_shards());
  sim.set_obs(obs_rt.shard_obs());
  net.set_obs(obs_rt.shard_obs());
  apply_failure_plan(net, failures);

  DisseminationResult result;
  detail::init_delivery(result, topology.num_nodes());
  auto forward = [&](std::int32_t shard, NodeId self, NodeId except,
                     std::int32_t hops) {
    const std::int32_t deg = topology.degree(self);
    for (std::int32_t i = 0; i < deg; ++i) {
      const NodeId v = topology.neighbor(self, i);
      if (v != except) {
        net.send_link(shard, self, v, topology.incident_edge(self, i), hops);
      }
    }
  };
  net.set_receive_handler([&](std::int32_t shard, NodeId self, NodeId from,
                              std::int64_t hops) {
    const auto h = static_cast<std::int32_t>(hops) + 1;
    if (detail::record_first_copy(result, self, sim.now(shard), h)) {
      forward(shard, self, from, h);
    }
  });
  if (net.is_alive(cfg.source)) {
    detail::record_first_copy(result, cfg.source, 0.0, 0);
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 0.0, cfg.source,
                         [&](std::int32_t shard) {
                           forward(shard, cfg.source, -1, 0);
                         });
  }
  sim.run();
  detail::assemble_result(result, net, sim, obs_rt);
  return result;
}

/// Deterministic flooding over a generic overlay: the source sends to
/// all neighbors; every node forwards the first copy it receives to all
/// neighbors except the one it came from — the first-copy relay with
/// the "always" rule.  Identical semantics (and, for equal edge ids,
/// identical results) to the concrete `flood(const core::Graph&, ...)`
/// overload.  With cfg.shards > 1 the run executes on the sharded
/// engine via `sharded_flood`.
template <core::EdgeIndexedGraph Topology>
DisseminationResult flood(const Topology& topology, const FloodConfig& cfg,
                          const FailurePlan& failures = {}) {
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());
  if (cfg.shards > 1) return sharded_flood(topology, cfg, failures);
  core::Rng rng(cfg.seed);
  return detail::relay_first_copy(
      topology, cfg, rng, cfg.chaos, failures,
      [](core::NodeId, core::NodeId, std::int32_t) { return true; });
}

}  // namespace lhg::flooding
