// The fault-model fixtures of test_network.cc and test_failure.cc, run
// against every network that shares FaultModel (flooding/fault_model.h):
// the single-queue Network and ShardedNetwork at S = 1 and S = 4.
//
// Each engine sits behind one small harness, so every fixture is written
// once.  `at(t, fn)` runs fn in a serial phase — where the fault model
// may change and the sharded network's phase checks hold — and
// `send_at(t, u, v)` sends one message from u's own execution context,
// recording whether the network accepted it.  A harness keeps a pointer
// to its graph, which must outlive it.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "flooding/failure.h"
#include "flooding/network.h"
#include "flooding/shard_net.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

using core::Graph;
using core::NodeId;

/// Outcome of one send_at probe.
enum Sent : std::int8_t { kNotRun = -1, kRefused = 0, kAccepted = 1 };

struct SerialEngine {
  SerialEngine(const Graph& g, LatencySpec latency = LatencySpec::fixed(1.0),
               const ChaosSpec& chaos = {})
      : net(g, sim, latency, rng, chaos) {}

  template <typename F>
  void at(double t, F fn) {
    sim.schedule_at(t, std::move(fn));
  }
  std::size_t send_at(double t, NodeId u, NodeId v) {
    sent.push_back(kNotRun);
    sim.schedule_at(t, [this, u, v, i = sent.size() - 1] {
      sent[i] = net.send(u, v, 0) ? kAccepted : kRefused;
    });
    return sent.size() - 1;
  }
  void run() { sim.run(); }

  Simulator sim;
  core::Rng rng{1};
  Network net;
  std::vector<Sent> sent;  // one slot per probe, written by its event
};

template <std::int32_t S>
struct ShardedEngine {
  ShardedEngine(const Graph& g, LatencySpec latency = LatencySpec::fixed(1.0),
                const ChaosSpec& chaos = {})
      : sim(g.num_nodes(), S), net(g, sim, latency, rng, chaos) {}

  template <typename F>
  void at(double t, F fn) {
    sim.schedule_control_at(
        t, [fn = std::move(fn)](std::int32_t /*env*/) mutable { fn(); });
  }
  std::size_t send_at(double t, NodeId u, NodeId v) {
    sent.push_back(kNotRun);
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, t, u,
                         [this, u, v, i = sent.size() - 1](std::int32_t sh) {
                           sent[i] = net.send(sh, u, v, 0) ? kAccepted
                                                           : kRefused;
                         });
    return sent.size() - 1;
  }
  void run() { sim.run(); }

  ShardedSimulator sim;
  core::Rng rng{1};
  ShardedNetwork<Graph> net;
  std::vector<Sent> sent;
};

using Engines =
    ::testing::Types<SerialEngine, ShardedEngine<1>, ShardedEngine<4>>;

struct EngineNames {
  template <typename T>
  static std::string GetName(int i) {
    return i == 0 ? "Serial" : i == 1 ? "Sharded1" : "Sharded4";
  }
};

template <typename Engine>
class FaultModelT : public ::testing::Test {};
TYPED_TEST_SUITE(FaultModelT, Engines, EngineNames);

Graph path3() {
  return Graph::from_edges(3, std::vector<core::Edge>{{0, 1}, {1, 2}});
}

// --- Spec and argument validation (test_network.cc) ----------------------

TYPED_TEST(FaultModelT, Validation) {
  const Graph g = path3();
  EXPECT_THROW(TypeParam(g, LatencySpec::fixed(-1.0)), std::invalid_argument);
  TypeParam h(g);
  EXPECT_THROW(h.net.crash_now(9), std::invalid_argument);
  EXPECT_THROW(h.net.fail_link_now(0, 2), std::invalid_argument);
}

TYPED_TEST(FaultModelT, ChaosValidation) {
  const Graph g = path3();
  ChaosSpec bad_dup;
  bad_dup.duplicate = 1.0;
  EXPECT_THROW(TypeParam(g, LatencySpec::fixed(1.0), bad_dup),
               std::invalid_argument);
  const ChaosSpec bad_ge = ChaosSpec::bursty(-0.1, 0.5, 0.5);
  EXPECT_THROW(TypeParam(g, LatencySpec::fixed(1.0), bad_ge),
               std::invalid_argument);
  ChaosSpec bad_reorder;
  bad_reorder.reorder = 0.5;
  bad_reorder.reorder_jitter = -1.0;
  EXPECT_THROW(TypeParam(g, LatencySpec::fixed(1.0), bad_reorder),
               std::invalid_argument);
}

// --- Epoch-guarded windows (test_network.cc) -----------------------------

TYPED_TEST(FaultModelT, OverlappingPartitionWindowsKeepTheSecondCut) {
  const Graph g = path3();
  TypeParam h(g);
  h.net.partition_during({0, 0, 1}, 2.0, 6.0);
  h.net.partition_during({1, 0, 0}, 4.0, 10.0);  // replaces the first at t=4
  // The first window ended at t=6, but its clear must not dissolve the
  // second cut: (0, 1) still crosses it.
  h.at(7.0, [&] { EXPECT_TRUE(h.net.partition_active()); });
  const std::size_t during = h.send_at(7.0, 0, 1);
  h.at(11.0, [&] { EXPECT_FALSE(h.net.partition_active()); });
  const std::size_t after = h.send_at(11.0, 0, 1);
  h.run();
  EXPECT_EQ(h.sent[during], kRefused);
  EXPECT_EQ(h.sent[after], kAccepted);
  EXPECT_EQ(h.net.stats().delivered, 1);
  EXPECT_EQ(h.net.stats().blocked_partition, 1);
}

// A direct set_partition mid-window also advances the epoch: the
// window's stale clear must not tear down the cut the caller installed.
TYPED_TEST(FaultModelT, DirectPartitionSurvivesStaleWindowClear) {
  const Graph g = path3();
  TypeParam h(g);
  h.net.partition_during({0, 0, 1}, 2.0, 6.0);
  h.at(4.0, [&] { h.net.set_partition({1, 0, 0}); });
  h.at(7.0, [&] { EXPECT_TRUE(h.net.partition_active()); });
  const std::size_t probe = h.send_at(7.0, 0, 1);
  h.run();
  EXPECT_EQ(h.sent[probe], kRefused);
  EXPECT_TRUE(h.net.partition_active());
}

TYPED_TEST(FaultModelT, OverlappingCrashWindowsKeepNodeDownUntilLatest) {
  const Graph g = path3();
  TypeParam h(g);
  const std::size_t w1 = h.net.crash_windowed(2, 5.0);
  h.net.recover_windowed(2, 15.0, w1);
  const std::size_t w2 = h.net.crash_windowed(2, 8.0);
  h.net.recover_windowed(2, 30.0, w2);
  h.at(20.0, [&] { EXPECT_FALSE(h.net.is_alive(2)); });
  h.at(31.0, [&] { EXPECT_TRUE(h.net.is_alive(2)); });
  h.run();
  EXPECT_TRUE(h.net.is_alive(2));
  EXPECT_EQ(h.net.alive_count(), 3);
}

// A direct crash_now during a window invalidates the window's pending
// recovery instead of being clobbered by it.
TYPED_TEST(FaultModelT, DirectCrashNotClobberedByWindowedRecovery) {
  const Graph g = path3();
  TypeParam h(g);
  const std::size_t w = h.net.crash_windowed(2, 5.0);
  h.net.recover_windowed(2, 15.0, w);
  h.at(10.0, [&] { h.net.crash_now(2); });  // operator re-downs it
  h.at(20.0, [&] { EXPECT_FALSE(h.net.is_alive(2)); });
  h.run();
  EXPECT_FALSE(h.net.is_alive(2));
}

TYPED_TEST(FaultModelT, OverlappingLinkFlapWindowsKeepLinkDownUntilLatest) {
  const Graph g = path3();
  TypeParam h(g);
  const std::size_t w1 = h.net.fail_link_windowed(0, 1, 5.0);
  h.net.restore_link_windowed(0, 1, 15.0, w1);
  const std::size_t w2 = h.net.fail_link_windowed(0, 1, 8.0);
  h.net.restore_link_windowed(0, 1, 30.0, w2);
  h.at(20.0, [&] { EXPECT_FALSE(h.net.link_ok(0, 1)); });
  const std::size_t during = h.send_at(20.0, 0, 1);
  h.at(31.0, [&] { EXPECT_TRUE(h.net.link_ok(0, 1)); });
  const std::size_t after = h.send_at(31.0, 0, 1);
  h.run();
  EXPECT_EQ(h.sent[during], kRefused);
  EXPECT_EQ(h.sent[after], kAccepted);
  EXPECT_EQ(h.net.stats().delivered, 1);
  EXPECT_EQ(h.net.stats().blocked_link_down, 1);
}

// --- Composed failure plans (test_failure.cc) ----------------------------

TYPED_TEST(FaultModelT, ComposedOverlappingPartitionsKeepTheLaterCut) {
  const auto g = lhg::build(26, 3);
  core::Rng rng(11);
  FailurePlan plan = random_partition(g, rng, 2.0, 6.0);
  compose(plan, cut_partition(g, rng, 4.0, 10.0));
  ASSERT_EQ(plan.partitions.size(), 2u);
  const auto& side = plan.partitions[1].side;
  // Pick an overlay edge the second cut severs; the probe rides it.
  NodeId u = -1;
  NodeId v = -1;
  for (const auto& e : g.edges()) {
    if (side[static_cast<std::size_t>(e.u)] !=
        side[static_cast<std::size_t>(e.v)]) {
      u = e.u;
      v = e.v;
      break;
    }
  }
  ASSERT_GE(u, 0) << "cut_partition must sever at least one edge";

  TypeParam h(g);
  apply_failure_plan(h.net, plan);
  h.at(7.0, [&] { EXPECT_TRUE(h.net.partition_active()); });
  const std::size_t during = h.send_at(7.0, u, v);  // second cut active
  h.at(11.0, [&] { EXPECT_FALSE(h.net.partition_active()); });
  const std::size_t after = h.send_at(11.0, u, v);
  h.run();
  EXPECT_EQ(h.sent[during], kRefused);
  EXPECT_EQ(h.sent[after], kAccepted);
  EXPECT_EQ(h.net.stats().blocked_partition, 1);
}

TYPED_TEST(FaultModelT, ComposedOverlappingCrashWindowsStayDownUntilLatest) {
  const auto g = lhg::build(12, 3);
  TypeParam h(g);
  FailurePlan plan;
  plan.crashes = {{2, 5.0}, {2, 8.0}};
  plan.recoveries = {{2, 15.0}, {2, 30.0}};
  apply_failure_plan(h.net, plan);
  h.at(20.0, [&] { EXPECT_FALSE(h.net.is_alive(2)); });
  h.at(31.0, [&] { EXPECT_TRUE(h.net.is_alive(2)); });
  h.run();
  EXPECT_TRUE(h.net.is_alive(2));
}

TYPED_TEST(FaultModelT, ComposedOverlappingFlapsStayDownUntilLatest) {
  const auto g = lhg::build(12, 3);
  const core::Edge link = g.edges().front();
  FailurePlan plan;
  plan.flaps = {{link, 5.0, 15.0}, {link, 8.0, 30.0}};
  TypeParam h(g);
  apply_failure_plan(h.net, plan);
  h.at(20.0, [&] { EXPECT_FALSE(h.net.link_ok(link.u, link.v)); });
  h.at(31.0, [&] { EXPECT_TRUE(h.net.link_ok(link.u, link.v)); });
  h.run();
  EXPECT_TRUE(h.net.link_ok(link.u, link.v));
}

// Recoveries without a preceding crash in the plan (pre-crashed nodes)
// keep the unconditional legacy semantics.
TYPED_TEST(FaultModelT, UnpairedRecoveryStaysUnconditional) {
  const auto g = lhg::build(12, 3);
  TypeParam h(g);
  FailurePlan plan;
  plan.recoveries = {{3, 5.0}};
  h.net.crash_now(3);  // crashed outside the plan
  apply_failure_plan(h.net, plan);
  h.run();
  EXPECT_TRUE(h.net.is_alive(3));
}

}  // namespace
}  // namespace lhg::flooding
