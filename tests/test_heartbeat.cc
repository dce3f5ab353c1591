// Tests for the heartbeat failure-detection layer.

#include "flooding/heartbeat.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "flooding/heartbeat_detector.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

TEST(Heartbeat, QuietWhenNothingFails) {
  const auto g = lhg::build(22, 3);
  const auto result = run_heartbeat(g, {.horizon = 20.0});
  EXPECT_EQ(result.false_suspicions, 0);
  EXPECT_TRUE(result.detections.empty());
  // n nodes × deg k × horizon/interval beats.
  EXPECT_GT(result.heartbeats_sent, 0);
  EXPECT_LE(result.heartbeats_sent,
            static_cast<std::int64_t>(2 * g.num_edges()) * 20);
}

TEST(Heartbeat, DetectsACrashWithinTimeoutPlusInterval) {
  const auto g = lhg::build(22, 3);
  FailurePlan plan;
  plan.crashes.push_back({5, 10.0});
  const auto result = run_heartbeat(
      g, {.timeout = 3.0, .horizon = 30.0}, plan);
  ASSERT_EQ(result.detections.size(), 1u);
  const auto& detection = result.detections[0];
  EXPECT_EQ(detection.node, 5);
  EXPECT_GE(detection.detection_latency, 0.0);
  // Last beat at t<=10, suspicion within timeout + interval + latency.
  EXPECT_LE(detection.detection_latency, 3.0 + 1.0 + 0.5);
  EXPECT_TRUE(result.all_crashes_detected());
  EXPECT_EQ(result.false_suspicions, 0);
}

TEST(Heartbeat, DetectsMultipleCrashes) {
  const auto g = lhg::build(30, 3);
  FailurePlan plan;
  plan.crashes.push_back({2, 8.0});
  plan.crashes.push_back({9, 15.0});
  const auto result = run_heartbeat(g, {.horizon = 40.0}, plan);
  EXPECT_EQ(result.detections.size(), 2u);
  EXPECT_TRUE(result.all_crashes_detected());
  EXPECT_GT(result.max_detection_latency(), 0.0);
}

TEST(Heartbeat, LossCausesFalseSuspicions) {
  // With aggressive timeout (2 intervals) and 40% loss, some pair will
  // miss 2 beats in a row over a long horizon.
  const auto g = lhg::build(22, 3);
  const auto result = run_heartbeat(
      g, {.timeout = 2.1, .horizon = 60.0,
          .loss_probability = 0.4, .seed = 3});
  EXPECT_GT(result.false_suspicions, 0);
}

TEST(Heartbeat, GenerousTimeoutSuppressesFalseSuspicions) {
  const auto g = lhg::build(22, 3);
  const auto result = run_heartbeat(
      g, {.timeout = 8.0, .horizon = 60.0,
          .loss_probability = 0.2, .seed = 3});
  EXPECT_EQ(result.false_suspicions, 0);
}

TEST(Heartbeat, LinkFailureMakesBothEndpointsSuspectEachOther) {
  // Cut one link mid-run: both (live) endpoints stop hearing each other
  // and must raise a suspicion within the timeout — counted as false
  // suspicions because neither node actually crashed.
  const auto g = lhg::build(22, 3);
  const core::NodeId u = 0;
  const core::NodeId v = g.neighbors(0)[0];
  FailurePlan plan;
  plan.link_failures.push_back({{u, v}, 10.0});
  const auto result = run_heartbeat(
      g, {.timeout = 3.0, .horizon = 30.0}, plan);
  // Exactly the two directed arcs across the cut go silent; every other
  // pair keeps beating.
  EXPECT_EQ(result.false_suspicions, 2);
  EXPECT_TRUE(result.detections.empty());
}

TEST(Heartbeat, CrashAfterHorizonIgnored) {
  const auto g = lhg::build(10, 3);
  FailurePlan plan;
  plan.crashes.push_back({1, 100.0});
  const auto result = run_heartbeat(g, {.horizon = 20.0}, plan);
  EXPECT_TRUE(result.detections.empty());
}

TEST(Heartbeat, Validation) {
  const auto g = lhg::build(10, 3);
  EXPECT_THROW(run_heartbeat(g, {.timeout = 1.0}), std::invalid_argument);
  EXPECT_THROW(run_heartbeat(g, {.horizon = -1.0}), std::invalid_argument);
}

// The detector on its own: every tick up to the horizon runs the beat
// action, exactly the crashed node's alive neighbours suspect it, and
// every event it schedules fits the Simulator's inline callback slot.
TEST(HeartbeatDetector, SuspectsACrashWithInlineCallbacksOnly) {
  const auto g = lhg::build(22, 3);
  Simulator sim;
  core::Rng rng(1);
  Network net(g, sim, LatencySpec::fixed(0.1), rng);
  FailurePlan plan;
  plan.crashes.push_back({5, 4.0});
  apply_failure_plan(net, plan);
  std::int64_t ticks = 0;
  std::int32_t suspicions = 0;
  HeartbeatDetector detector(
      net, /*timeout=*/3.5, /*horizon=*/20.0,
      /*obs=*/nullptr,
      [&](core::NodeId u) {
        ++ticks;
        for (core::NodeId v : g.neighbors(u)) net.send(u, v, 0);
        return true;
      },
      [&](core::NodeId, core::NodeId target, std::int32_t, bool false_alarm) {
        EXPECT_EQ(target, 5);
        EXPECT_FALSE(false_alarm);
        ++suspicions;
      });
  net.set_receive_handler([&](core::NodeId self, core::NodeId from,
                              std::int64_t) { detector.heard(self, from); });
  sim.run_until(30.0);
  EXPECT_EQ(ticks, 22 * 20);  // ticks at t = 1, 2, ..., 20 per node
  EXPECT_EQ(suspicions, g.degree(5));
  EXPECT_EQ(detector.false_suspicions(), 0);
  EXPECT_EQ(sim.callback_heap_allocations(), 0);
}

// A beat heard after a suspicion rebuts it, so the same arc can raise a
// second suspicion when the target falls silent again.
TEST(HeartbeatDetector, NewerBeatRebutsAStandingSuspicion) {
  const auto g = lhg::build(22, 3);
  Simulator sim;
  core::Rng rng(1);
  Network net(g, sim, LatencySpec::fixed(0.1), rng);
  FailurePlan plan;
  plan.crashes = {{5, 4.0}, {5, 15.0}};
  plan.recoveries = {{5, 10.0}};
  apply_failure_plan(net, plan);
  std::int32_t suspicions = 0;
  HeartbeatDetector detector(
      net, /*timeout=*/3.5, /*horizon=*/30.0,
      /*obs=*/nullptr,
      [&](core::NodeId u) {
        for (core::NodeId v : g.neighbors(u)) net.send(u, v, 0);
        return true;
      },
      [&](core::NodeId, core::NodeId target, std::int32_t, bool) {
        EXPECT_EQ(target, 5);
        ++suspicions;
      });
  net.set_receive_handler([&](core::NodeId self, core::NodeId from,
                              std::int64_t) { detector.heard(self, from); });
  sim.run_until(12.0);
  EXPECT_EQ(suspicions, g.degree(5));  // first crash suspected
  for (core::NodeId w : g.neighbors(5)) {
    EXPECT_FALSE(detector.suspected(g.arc_index(w, 5)));  // rebutted
  }
  sim.run_until(35.0);
  EXPECT_EQ(suspicions, 2 * g.degree(5));
  for (core::NodeId w : g.neighbors(5)) {
    EXPECT_TRUE(detector.suspected(g.arc_index(w, 5)));
  }
}

}  // namespace
}  // namespace lhg::flooding
