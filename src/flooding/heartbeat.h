// Heartbeat failure detection over the overlay.
//
// Fault-tolerant flooding presumes someone notices failures; in
// practice that is a neighbor-to-neighbor heartbeat layer on the same
// overlay links.  Each node beats to its overlay neighbors once per
// kHeartbeatInterval (1.0, heartbeat_detector.h); a neighbor that stays
// silent for `timeout` is suspected.
// Because the LHG has degree ~k, the monitoring cost is O(k) messages
// per node per interval — another payoff of link minimality.
//
// The simulation measures the two quantities failure detectors trade
// off (completeness vs accuracy): detection latency of real crashes,
// and false suspicions caused by message loss.  The suspicion rule
// itself is HeartbeatDetector (heartbeat_detector.h), the same detector
// the repair pipeline (repair.h) runs; this entry point beats on the
// plain Network and records when each arc's suspicion was raised.

#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "flooding/failure.h"
#include "flooding/network.h"
#include "obs/obs.h"

namespace lhg::flooding {

struct HeartbeatConfig {
  double timeout = 3.5;   ///< silence before suspicion (> the 1.0 period)
  double horizon = 60.0;  ///< simulated duration
  LatencySpec latency = LatencySpec::fixed(0.1);
  double loss_probability = 0.0;
  std::uint64_t seed = 1;
  /// Metrics / trace recording (off by default: zero overhead).
  obs::ObsConfig obs{};
};

struct CrashDetection {
  core::NodeId node = -1;
  double crash_time = 0.0;
  /// Time until the LAST alive neighbor suspected the crash; negative
  /// if some neighbor never noticed before the horizon.
  double detection_latency = -1.0;
};

struct HeartbeatResult {
  std::int64_t heartbeats_sent = 0;
  std::vector<CrashDetection> detections;  // one per crashed node
  /// Suspicions raised against nodes that were alive at the time.
  std::int64_t false_suspicions = 0;

  /// Observability output (empty unless the config enables it).
  obs::Snapshot metrics;
  obs::TraceLog trace;

  bool all_crashes_detected() const {
    for (const auto& d : detections) {
      if (d.detection_latency < 0) return false;
    }
    return true;
  }
  double max_detection_latency() const {
    double worst = 0;
    for (const auto& d : detections) {
      worst = std::max(worst, d.detection_latency);
    }
    return worst;
  }
};

/// Simulates the heartbeat layer until the horizon.  Crashes in
/// `failures` take their configured times (time 0 crashes are never
/// "detected" — there is nothing to detect them against — so give
/// crashes positive times).  Throws on bad config.
HeartbeatResult run_heartbeat(const core::Graph& topology,
                              const HeartbeatConfig& cfg,
                              const FailurePlan& failures = {});

}  // namespace lhg::flooding
