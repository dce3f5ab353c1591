// Capstone: a self-healing broadcast overlay.
//
//   ./self_healing [n] [k]     (defaults: n = 62, k = 4)
//
// Ties the whole library together the way a deployment would:
//   1. build the LHG and flood a message (baseline);
//   2. crash f = k−1 nodes mid-operation;
//   3. the heartbeat layer detects the crashes;
//   4. flooding STILL reaches every survivor (the k−1 guarantee) —
//      this window between failure and repair is exactly what the
//      paper's topology buys;
//   5. the membership layer rewires to a fresh LHG on the survivors;
//   6. verify the healed overlay from first principles and flood again.

#include <algorithm>
#include <iostream>

#include "core/format.h"
#include "core/rng.h"
#include "flooding/failure.h"
#include "flooding/heartbeat.h"
#include "flooding/protocols.h"
#include "lhg/lhg.h"
#include "lhg/verifier.h"
#include "membership/membership.h"

int main(int argc, char** argv) {
  using namespace lhg;
  using core::format;

  const auto n = static_cast<core::NodeId>(argc > 1 ? std::atoi(argv[1]) : 62);
  const std::int32_t k = argc > 2 ? std::atoi(argv[2]) : 4;
  if (!exists(n, k) || !exists(n - (k - 1), k)) {
    std::cerr << format("need n and n-(k-1) >= 2k; got (n={}, k={})\n", n, k);
    return 1;
  }

  // 1. Healthy operation.
  const auto g = build(n, k);
  auto healthy = flooding::flood(g, {.source = 0});
  std::cout << format("[t0] overlay {} floods in {} hops, {} msgs\n",
                      core::describe(g), healthy.completion_hops,
                      healthy.messages_sent);

  // 2. k−1 crashes at t = 10 (mid-operation).
  core::Rng rng(7);
  flooding::FailurePlan plan = flooding::random_crashes(g, k - 1, 0, rng, /*time=*/0.0);
  for (auto& crash : plan.crashes) crash.time = 10.0;
  std::cout << format("[t1] crashing {} nodes at t=10:", k - 1);
  for (const auto& crash : plan.crashes) std::cout << ' ' << crash.node;
  std::cout << '\n';

  // 3. Heartbeat detection.
  const auto heartbeat = flooding::run_heartbeat(
      g, {.timeout = 3.5, .horizon = 30.0}, plan);
  if (!heartbeat.all_crashes_detected()) {
    std::cout << "[t2] FAILURE: some crash went undetected\n";
    return 2;
  }
  std::cout << format(
      "[t2] heartbeats detected all {} crashes, worst latency {:.1f} "
      "(beats: {})\n",
      plan.crashes.size(), heartbeat.max_detection_latency(),
      heartbeat.heartbeats_sent);

  // 4. Broadcast during the degraded window: still total.
  const auto degraded = flooding::flood(g, {.source = 0}, plan);
  std::cout << format(
      "[t3] degraded flood: {}/{} live nodes in {} hops [{}]\n",
      degraded.delivered_alive, degraded.alive_nodes, degraded.completion_hops,
      degraded.all_alive_delivered() ? "guarantee held" : "GUARANTEE BROKEN");
  if (!degraded.all_alive_delivered()) return 2;

  // 5. Rewire the survivors into a fresh LHG of size n-(k-1).
  membership::Overlay overlay(n, k);
  const auto churn = overlay.resize(n - (k - 1));
  std::cout << format(
      "[t4] membership rewired to n={} ({} edges added, {} removed)\n",
      overlay.size(), churn.added.size(), churn.removed.size());

  // 6. Verify and resume.
  const auto report = verify(overlay.graph(), k, {.minimality_sample = 32});
  const auto healed = flooding::flood(overlay.graph(), {.source = 0});
  std::cout << format(
      "[t5] healed overlay verified [{}]; flood {} hops, {} msgs\n",
      report.is_lhg() ? "LHG" : "NOT LHG", healed.completion_hops,
      healed.messages_sent);
  return report.is_lhg() && healed.all_alive_delivered() ? 0 : 2;
}
