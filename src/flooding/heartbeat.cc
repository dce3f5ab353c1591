#include "flooding/heartbeat.h"

#include "core/check.h"
#include "core/rng.h"
#include "flooding/heartbeat_detector.h"

namespace lhg::flooding {

using core::NodeId;

HeartbeatResult run_heartbeat(const core::Graph& topology,
                              const HeartbeatConfig& cfg,
                              const FailurePlan& failures) {
  LHG_CHECK(cfg.timeout > kHeartbeatInterval && cfg.horizon > 0,
            "heartbeat: need timeout > interval {} and horizon > 0, got "
            "timeout={}, horizon={}",
            kHeartbeatInterval, cfg.timeout, cfg.horizon);

  Simulator sim;
  core::Rng rng(cfg.seed);
  Network net(topology, sim, cfg.latency, rng,
              ChaosSpec::iid(cfg.loss_probability));
  obs::Runtime obs_rt(cfg.obs);
  const obs::SimObs* obs = obs_rt.obs();
  sim.set_obs(obs);
  net.set_obs(obs);
  apply_failure_plan(net, failures);

  HeartbeatResult result;
  // When each observer first suspected each target, per directed arc.
  std::vector<double> suspect_time(
      static_cast<std::size_t>(topology.num_arcs()), 0.0);
  // Crashed nodes beat too: the Network refuses their sends without
  // consuming Rng draws, and the tick still counts as a beat.
  HeartbeatDetector detector(
      net, cfg.timeout, cfg.horizon, obs,
      [&](NodeId u) {
        std::int32_t arc = topology.arc_begin(u);
        for (NodeId v : topology.neighbors(u)) {
          net.send_link(u, v, topology.edge_of_arc(arc), 0);
          ++arc;
        }
        return true;
      },
      [&](NodeId, NodeId, std::int32_t arc, bool) {
        suspect_time[static_cast<std::size_t>(arc)] = sim.now();
      });
  net.set_receive_handler([&](NodeId self, NodeId from, std::int64_t) {
    detector.heard(self, from);
  });
  sim.run_until(cfg.horizon + cfg.timeout + 1.0);

  result.heartbeats_sent = net.messages_sent();
  result.false_suspicions = detector.false_suspicions();

  // Post-process detections for crashes scheduled inside the horizon
  // (in failure-plan order, deterministically).
  for (const auto& [node, at] : failures.crashes) {
    if (at <= 0.0 || at >= cfg.horizon) continue;
    double latency = 0;  // -1 once some alive neighbour never suspected
    for (NodeId w : topology.neighbors(node)) {
      if (!net.is_alive(w)) continue;  // dead observers owe nothing
      const std::int32_t a = topology.arc_index(w, node);
      if (!detector.suspected(a)) {
        latency = -1.0;
        break;
      }
      latency =
          std::max(latency, suspect_time[static_cast<std::size_t>(a)] - at);
    }
    result.detections.push_back({node, at, latency});
  }
  result.metrics = obs_rt.metrics_snapshot();
  result.trace = obs_rt.trace_log();
  return result;
}

}  // namespace lhg::flooding
