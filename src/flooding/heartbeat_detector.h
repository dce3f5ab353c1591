// Neighbour-to-neighbour heartbeat failure detector, the one suspicion
// rule behind `run_heartbeat` (heartbeat.cc) and the detection phase of
// `run_repair` (repair.cc).
//
// Every node ticks every kHeartbeatInterval up to the horizon, and each
// tick runs the caller's per-node beat action.  Monitoring state lives
// per directed overlay arc (observer -> target) in flat arrays over
// Graph::arc_index ids: when it was last heard and whether it stands
// suspected.  Hearing a beat rebuts any standing suspicion and arms a
// check `timeout` later; a newer beat re-arms a later check, so only
// the newest matters.  A check that finds its arc still silent
// suspects the target, counts the hb_* obs metrics and runs the
// caller's on-suspect action.  Beats stop at the horizon, so silence
// past it is an artifact of the simulation ending, not a failure, and
// is ignored.
//
// Ticks re-arm themselves instead of being pre-scheduled per node up
// front, so the pending-event set stays O(n) for any horizon (the
// rolling-footprint discipline of DESIGN.md §12).  The next tick time
// accumulates as t + kHeartbeatInterval, which keeps tick timestamps
// bit-identical to a pre-scheduled loop.  Crashed nodes keep ticking;
// the beat action decides what a crashed node does, and a recovered
// node resumes beating on its next tick.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "flooding/event_sim.h"
#include "flooding/network.h"
#include "obs/obs.h"

namespace lhg::flooding {

/// The heartbeat period of every detector: run_heartbeat and run_repair
/// both beat once per unit of virtual time.
inline constexpr double kHeartbeatInterval = 1.0;

/// `beat(u)` sends u's heartbeats and returns whether the tick counts
/// as a beat (obs `hb_beats`).  `on_suspect(observer, target, arc,
/// false_alarm)` runs on every new suspicion; `false_alarm` says the
/// target was alive.  Both are template arguments, stored inline, so
/// the scheduled events capture only the detector and a few scalars.
template <typename Beat, typename OnSuspect>
class HeartbeatDetector {
 public:
  /// Starts the detector: schedules every node's first tick at
  /// kHeartbeatInterval and, as everyone starts "heard at 0", the first
  /// check on each of its arcs.  `net` (with its topology and simulator)
  /// must outlive the detector; `obs` may be null.
  HeartbeatDetector(Network& net, double timeout, double horizon,
                    const obs::SimObs* obs, Beat beat, OnSuspect on_suspect)
      : net_(net),
        timeout_(timeout),
        horizon_(horizon),
        obs_(obs),
        beat_(std::move(beat)),
        on_suspect_(std::move(on_suspect)),
        last_heard_(static_cast<std::size_t>(g().num_arcs()), 0.0),
        suspected_(static_cast<std::size_t>(g().num_arcs()), 0) {
    for (core::NodeId u = 0; u < g().num_nodes(); ++u) {
      sim().schedule_at(kHeartbeatInterval,
                        [this, u, t = kHeartbeatInterval] { tick(u, t); });
      const std::int32_t end = g().arc_begin(u) + g().degree(u);
      for (std::int32_t arc = g().arc_begin(u); arc < end; ++arc) {
        arm(u, g().arc_target(arc), arc, 0.0);
      }
    }
  }

  // Scheduled events hold `this`.
  HeartbeatDetector(const HeartbeatDetector&) = delete;
  HeartbeatDetector& operator=(const HeartbeatDetector&) = delete;

  /// A heartbeat from `from` reached `self`.
  void heard(core::NodeId self, core::NodeId from) {
    const std::int32_t arc = g().arc_index(self, from);
    last_heard_[static_cast<std::size_t>(arc)] = sim().now();
    suspected_[static_cast<std::size_t>(arc)] = 0;  // rebut any suspicion
    arm(self, from, arc, sim().now());
  }

  bool suspected(std::int32_t arc) const {
    return suspected_[static_cast<std::size_t>(arc)] != 0;
  }
  /// Suspicions raised against targets that were alive at the time.
  std::int64_t false_suspicions() const { return false_suspicions_; }

 private:
  void tick(core::NodeId u, double t) {
    if (beat_(u) && obs_ != nullptr) obs_->add(obs_->hb_beats);
    const double next = t + kHeartbeatInterval;
    if (next <= horizon_) {
      sim().schedule_at(next, [this, u, next] { tick(u, next); });
    }
  }

  void arm(core::NodeId observer, core::NodeId target, std::int32_t arc,
           double armed_at) {
    sim().schedule_at(armed_at + timeout_, [this, observer, target, arc,
                                            armed_at] {
      if (!net_.is_alive(observer) || sim().now() > horizon_) return;
      const auto a = static_cast<std::size_t>(arc);
      // A newer beat re-armed a later check, or the target already
      // stands suspected.
      if (last_heard_[a] > armed_at || suspected_[a] != 0) return;
      suspected_[a] = 1;
      const bool false_alarm = net_.is_alive(target);
      if (false_alarm) ++false_suspicions_;
      if (obs_ != nullptr) {
        obs_->add(obs_->hb_suspicions);
        if (false_alarm) obs_->add(obs_->hb_false_suspicions);
        obs_->event(sim().now(), obs::TraceKind::kSuspicion, observer, target,
                    false_alarm ? 1 : 0);
      }
      on_suspect_(observer, target, arc, false_alarm);
    });
  }

  const core::Graph& g() const { return net_.topology(); }
  Simulator& sim() { return net_.simulator(); }

  Network& net_;
  double timeout_;
  double horizon_;
  const obs::SimObs* obs_;
  Beat beat_;
  OnSuspect on_suspect_;
  std::vector<double> last_heard_;
  std::vector<std::uint8_t> suspected_;
  std::int64_t false_suspicions_ = 0;
};

}  // namespace lhg::flooding
